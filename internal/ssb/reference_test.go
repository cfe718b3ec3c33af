package ssb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The reference: Partial, Rows, GroupSum.Encode and DecodeGroupSum as
// they were before the engine reused its scratch, kept verbatim apart
// from their names. The served encodings must equal theirs byte for
// byte — the benchmark's validator links the same package and could not
// tell an encoding drift from the truth.

func refPartial(p *Plan, chunk *LineOrders) *GroupSum {
	sel := ScanAll(chunk)
	db := p.db
	g := NewGroupSum()
	switch p.ID {
	case Q11:
		sel = Filter(chunk, sel, func(i int32) bool {
			d := chunk.Discount[i]
			return d >= 1 && d <= 3 && chunk.Quantity[i] < 25
		})
		sel = p.dateJoin.Probe(sel, chunk.OrderDate)
		for _, i := range sel {
			g.Add("revenue", int64(chunk.ExtendedPrice[i])*int64(chunk.Discount[i]))
		}
	case Q21:
		sel = p.partJoin.Probe(sel, chunk.PartKey)
		sel = p.suppJoin.Probe(sel, chunk.SuppKey)
		for _, i := range sel {
			di, ok := p.dateJoin.Lookup(chunk.OrderDate[i])
			if !ok {
				continue
			}
			pi, _ := p.partJoin.Lookup(chunk.PartKey[i])
			key := fmt.Sprintf("%d|%s", db.Dates[di].Year, db.Parts[pi].Brand)
			g.Add(key, int64(chunk.Revenue[i]))
		}
	case Q31:
		sel = p.custJoin.Probe(sel, chunk.CustKey)
		sel = p.suppJoin.Probe(sel, chunk.SuppKey)
		sel = p.dateJoin.Probe(sel, chunk.OrderDate)
		for _, i := range sel {
			ci, _ := p.custJoin.Lookup(chunk.CustKey[i])
			si, _ := p.suppJoin.Lookup(chunk.SuppKey[i])
			di, _ := p.dateJoin.Lookup(chunk.OrderDate[i])
			key := fmt.Sprintf("%s|%s|%d", db.Customers[ci].Nation,
				db.Suppliers[si].Nation, db.Dates[di].Year)
			g.Add(key, int64(chunk.Revenue[i]))
		}
	case Q41:
		sel = p.custJoin.Probe(sel, chunk.CustKey)
		sel = p.suppJoin.Probe(sel, chunk.SuppKey)
		sel = p.partJoin.Probe(sel, chunk.PartKey)
		for _, i := range sel {
			di, ok := p.dateJoin.Lookup(chunk.OrderDate[i])
			if !ok {
				continue
			}
			ci, _ := p.custJoin.Lookup(chunk.CustKey[i])
			key := fmt.Sprintf("%d|%s", db.Dates[di].Year, db.Customers[ci].Nation)
			g.Add(key, int64(chunk.Revenue[i])-int64(chunk.SupplyCost[i]))
		}
	}
	return g
}

func refRows(g *GroupSum) []Agg {
	out := make([]Agg, 0, len(g.groups))
	for _, a := range g.groups {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func refEncode(g *GroupSum) []byte {
	var b strings.Builder
	for _, a := range refRows(g) {
		fmt.Fprintf(&b, "%s\t%d\t%d\n", a.Key, a.Sum, a.N)
	}
	return []byte(b.String())
}

func refDecodeGroupSum(data []byte) (*GroupSum, error) {
	g := NewGroupSum()
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("ssb: malformed partial row %q", line)
		}
		var sum, n int64
		if _, err := fmt.Sscanf(parts[1], "%d", &sum); err != nil {
			return nil, fmt.Errorf("ssb: bad sum in %q", line)
		}
		if _, err := fmt.Sscanf(parts[2], "%d", &n); err != nil {
			return nil, fmt.Errorf("ssb: bad count in %q", line)
		}
		a, ok := g.groups[parts[0]]
		if !ok {
			g.groups[parts[0]] = &Agg{Key: parts[0], Sum: sum, N: n}
		} else {
			a.Sum += sum
			a.N += n
		}
	}
	return g, nil
}

// checkChunks runs one chunking of a query both ways: every chunk's
// served partial (PartialChunk on its wire encoding) against the
// reference partial of the same rows, then the served merge
// (MergeEncoded + Encode) against the reference merge (decode, Merge,
// encode).
func checkChunks(t *testing.T, plan *Plan, chunks []*LineOrders) {
	t.Helper()
	merged, refMerged := NewGroupSum(), NewGroupSum()
	for i, c := range chunks {
		got, err := plan.PartialChunk(EncodeChunk(c))
		if err != nil {
			t.Fatalf("%s chunk %d (%d rows): %v", plan.ID, i, c.Len(), err)
		}
		want := refEncode(refPartial(plan, c))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s chunk %d (%d rows): partial\n%q\nwant\n%q", plan.ID, i, c.Len(), got, want)
		}
		if err := merged.MergeEncoded(got); err != nil {
			t.Fatal(err)
		}
		g, err := refDecodeGroupSum(want)
		if err != nil {
			t.Fatal(err)
		}
		refMerged.Merge(g)
	}
	if got, want := merged.Encode(), refEncode(refMerged); !bytes.Equal(got, want) {
		t.Fatalf("%s: merged\n%q\nwant\n%q", plan.ID, got, want)
	}
}

func testPlans(t *testing.T, db *DB) []*Plan {
	t.Helper()
	var plans []*Plan
	for _, q := range Queries() {
		p, err := NewPlan(db, q)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	return plans
}

// raceEnabled is set by race_test.go: the race detector slows the
// replay tenfold, so it runs fewer chunkings.
var raceEnabled bool

// Seeded random chunkings of every query: chunk lengths mix single
// rows, short runs and up to 2^13 rows, so consecutive calls reuse
// pooled columns and selections of every size against each other.
func TestPartialMatchesReference(t *testing.T) {
	db := Generate(1<<15, 42)
	plans := testPlans(t, db)
	trials := 1200
	if raceEnabled {
		trials = 20
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < trials; trial++ {
		plan := plans[trial%len(plans)]
		lo := rng.Intn(db.Facts.Len())
		var chunks []*LineOrders
		for k := rng.Intn(6) + 1; k > 0 && lo < db.Facts.Len(); k-- {
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 1
			case 1:
				n = rng.Intn(64) + 1
			case 2:
				n = rng.Intn(1024) + 1
			default:
				n = rng.Intn(1<<13) + 1
			}
			hi := min(lo+n, db.Facts.Len())
			chunks = append(chunks, db.Facts.Slice(lo, hi))
			lo = hi
		}
		checkChunks(t, plan, chunks)
	}
}

// Edge chunkings: a chunk with no rows, a chunk whose every row fails
// the query, and a 2^13-row chunk followed by smaller ones decoded into
// the same scratch, whose stale tail must not leak into the result.
func TestPartialChunkEdgesMatchReference(t *testing.T) {
	db := Generate(1<<14, 43)
	for _, plan := range testPlans(t, db) {
		var none LineOrders
		for i := 0; i < db.Facts.Len() && none.Len() < 200; i++ {
			row := db.Facts.Slice(i, i+1)
			if len(refPartial(plan, row).groups) == 0 {
				appendRow(&none, db.Facts, i)
			}
		}
		if none.Len() == 0 {
			t.Fatalf("%s: every row selected", plan.ID)
		}
		if got := refEncode(refPartial(plan, &none)); len(got) != 0 {
			t.Fatalf("%s: non-selecting chunk produced %q", plan.ID, got)
		}
		big := db.Facts.Slice(0, 1<<13)
		checkChunks(t, plan, []*LineOrders{db.Facts.Slice(0, 0), &none, big, db.Facts.Slice(5, 6), big, db.Facts.Slice(100, 117)})

		var s chunkScratch
		for _, c := range []*LineOrders{big, db.Facts.Slice(9, 10), &none, db.Facts.Slice(300, 1300)} {
			var err error
			if s.cols, err = s.rows.decode(EncodeChunk(c), s.cols); err != nil {
				t.Fatal(err)
			}
			if got, want := plan.Partial(&s.rows).Encode(), refEncode(refPartial(plan, c)); !bytes.Equal(got, want) {
				t.Fatalf("%s: reused scratch after %d rows: %q, want %q", plan.ID, c.Len(), got, want)
			}
		}
		if cap(s.cols) < 10<<13 {
			t.Fatalf("scratch did not keep its capacity: %d", cap(s.cols))
		}
	}
}

// appendRow appends row i of f to l.
func appendRow(l, f *LineOrders, i int) {
	l.OrderKey = append(l.OrderKey, f.OrderKey[i])
	l.CustKey = append(l.CustKey, f.CustKey[i])
	l.PartKey = append(l.PartKey, f.PartKey[i])
	l.SuppKey = append(l.SuppKey, f.SuppKey[i])
	l.OrderDate = append(l.OrderDate, f.OrderDate[i])
	l.Quantity = append(l.Quantity, f.Quantity[i])
	l.ExtendedPrice = append(l.ExtendedPrice, f.ExtendedPrice[i])
	l.Discount = append(l.Discount, f.Discount[i])
	l.Revenue = append(l.Revenue, f.Revenue[i])
	l.SupplyCost = append(l.SupplyCost, f.SupplyCost[i])
}

// PartialChunk and Partial share pools across goroutines: every
// goroutine's answers must still be the reference's.
func TestPartialChunkConcurrent(t *testing.T) {
	db := Generate(1<<13, 44)
	plans := testPlans(t, db)
	want := make([][]byte, len(plans))
	enc := EncodeChunk(db.Facts)
	for i, p := range plans {
		want[i] = refEncode(refPartial(p, db.Facts))
	}
	done := make(chan error)
	for w := 0; w < 4; w++ {
		go func() {
			var err error
			for i := 0; i < 8 && err == nil; i++ {
				p := plans[(w+i)%len(plans)]
				got, perr := p.PartialChunk(enc)
				if perr != nil || !bytes.Equal(got, want[(w+i)%len(plans)]) {
					err = fmt.Errorf("%s: %v %q", p.ID, perr, got)
				}
			}
			done <- err
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestPartialChunkRejectsMalformed(t *testing.T) {
	plan, err := NewPlan(Generate(100, 1), Q11)
	if err != nil {
		t.Fatal(err)
	}
	good := EncodeChunk(Generate(10, 1).Facts)
	for _, c := range [][]byte{nil, good[:len(good)-4], append([]byte("XXXX"), good[4:]...)} {
		if _, err := plan.PartialChunk(c); err == nil {
			t.Errorf("PartialChunk(%d bytes) accepted", len(c))
		}
	}
}

// FuzzDecodeGroupSum: the decoder never panics; what it accepts, the
// reference accepts with the same rows, and it survives a round trip
// through Encode — so it rejects everything the reference rejects.
func FuzzDecodeGroupSum(f *testing.F) {
	g := NewGroupSum()
	g.Add("1993|MFGR#121", 500)
	g.Add("CHINA|INDIA|1994", -7)
	g.Add("revenue", 1<<62)
	f.Add(g.Encode())
	for _, s := range []string{"", "\n", "k\t1\t1", "k\t12abc\t1", "k\t 5\t1", "k\t5\t1 2",
		"k\t5\t1x", " k\t1\t1", "\t5\t1", "k\t+5\t-0\n", "k\t1\t1\n\nk\t1\t1", "k\t1\t1\r\n",
		"k\t9223372036854775808\t1", "a\t1\t1\na\t2\t3\n"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeGroupSum(data)
		if err != nil {
			return
		}
		ref, rerr := refDecodeGroupSum(data)
		if rerr != nil {
			t.Fatalf("accepted %q, which the reference rejects: %v", data, rerr)
		}
		if a, b := got.Rows(), refRows(ref); !slices.Equal(a, b) {
			t.Fatalf("%q: rows %v, reference %v", data, a, b)
		}
		back, err := DecodeGroupSum(got.Encode())
		if err != nil {
			t.Fatalf("%q: re-decoding its encoding: %v", data, err)
		}
		if a, b := back.Rows(), got.Rows(); !slices.Equal(a, b) {
			t.Fatalf("%q: round trip %v, want %v", data, a, b)
		}
	})
}
