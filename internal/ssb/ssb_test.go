package ssb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	return Generate(20000, 42)
}

// TestGenerateDeterministic pins Generate's output byte for byte. The
// bench validator's expected answers, every client's fact chunks and
// the worker's join tables each generate the database on their own, so
// they agree only while the same seed yields the same bytes. The digest
// covers the encoded fact table and the printed dimension tables. The
// worker builds its join tables with GenerateDims, so its dimensions
// must print the same as Generate's, and its fact table must be empty.
func TestGenerateDeterministic(t *testing.T) {
	const empty = "e887e3832adefd4be7cee77e13a78da582943201f4f3a835dfd7f9ae6c88a201"
	for _, tc := range []struct {
		rows int
		want string
	}{
		{-1, empty},
		{0, empty},
		{1, "28bae726efca1b6725d01262ac3837880858fbbec04bacdf33ce4332ad45f102"},
		{1000, "acd2bf922a288f287448b0c97020245fd2bad4711c01a32e8954eaae3779a3ea"},
		{1 << 16, "9072a88aa9790c20759edbe05f82d7d6bdad0f9314b90f3c96891f75fd0861e1"},
	} {
		db := Generate(tc.rows, 42)
		if want := max(tc.rows, 0); db.Facts.Len() != want {
			t.Fatalf("Generate(%d): %d fact rows, want %d", tc.rows, db.Facts.Len(), want)
		}
		h := sha256.New()
		h.Write(EncodeChunk(db.Facts))
		dims := fmt.Sprintf("%v%v%v%v", db.Dates, db.Parts, db.Suppliers, db.Customers)
		h.Write([]byte(dims))
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("Generate(%d, 42) digest %s, want %s", tc.rows, got, tc.want)
		}

		only := GenerateDims(tc.rows, 42)
		if only.Facts.Len() != 0 {
			t.Errorf("GenerateDims(%d): %d fact rows, want 0", tc.rows, only.Facts.Len())
		}
		if got := fmt.Sprintf("%v%v%v%v", only.Dates, only.Parts, only.Suppliers, only.Customers); got != dims {
			t.Errorf("GenerateDims(%d, 42) dimension tables differ from Generate's", tc.rows)
		}
	}
}

// A worker builds the 2^16-row database's dimension tables at
// registration (GenerateDims), and clients and tests build the whole
// database (Generate), so both generators' garbage is start-up time:
// each should allocate little beyond what it keeps. Generate keeps
// ~3 MB (ten 256 KiB fact columns, the dimension slices and their
// names), GenerateDims ~0.3 MB.
func TestGenerateAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations blur the count")
	}
	for _, tc := range []struct {
		name      string
		gen       func(int, int64) *DB
		maxAllocs float64
		maxBytes  uint64
	}{
		{"Generate", Generate, 6000, 3200 << 10},
		{"GenerateDims", GenerateDims, 6000, 400 << 10},
	} {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { tc.gen(1<<16, 42) })
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		t.Logf("%s(1<<16): %.0f allocs, %d B per call", tc.name, allocs, perRun)
		if allocs > tc.maxAllocs {
			t.Errorf("%s(1<<16) makes %.0f allocations, want <= %.0f", tc.name, allocs, tc.maxAllocs)
		}
		if perRun > tc.maxBytes {
			t.Errorf("%s(1<<16) allocates %d B, want <= %d KiB", tc.name, perRun, tc.maxBytes>>10)
		}
	}
}

// BenchmarkGenerate times the whole database clients and tests build.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Generate(1<<16, 42)
	}
}

// BenchmarkGenerateDims times the dimension tables a worker builds at
// registration.
func BenchmarkGenerateDims(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		GenerateDims(1<<16, 42)
	}
}

func TestGenerateReferentialIntegrity(t *testing.T) {
	db := testDB(t)
	dates := map[int32]bool{}
	for _, d := range db.Dates {
		dates[d.DateKey] = true
	}
	for i := 0; i < db.Facts.Len(); i++ {
		if !dates[db.Facts.OrderDate[i]] {
			t.Fatalf("dangling date key %d", db.Facts.OrderDate[i])
		}
		if k := db.Facts.CustKey[i]; k < 1 || int(k) > len(db.Customers) {
			t.Fatalf("dangling customer key %d", k)
		}
		if k := db.Facts.PartKey[i]; k < 1 || int(k) > len(db.Parts) {
			t.Fatalf("dangling part key %d", k)
		}
		if k := db.Facts.SuppKey[i]; k < 1 || int(k) > len(db.Suppliers) {
			t.Fatalf("dangling supplier key %d", k)
		}
	}
}

func TestFilterAndJoin(t *testing.T) {
	db := testDB(t)
	f := db.Facts
	sel := ScanAll(f)
	if len(sel) != f.Len() {
		t.Fatal("scan all size")
	}
	filtered := Filter(f, sel, func(i int32) bool { return f.Quantity[i] < 10 })
	for _, i := range filtered {
		if f.Quantity[i] >= 10 {
			t.Fatal("filter kept bad row")
		}
	}
	j := BuildJoin(len(db.Dates), func(i int) int32 { return db.Dates[i].DateKey },
		func(i int) bool { return db.Dates[i].Year == 1994 })
	joined := j.Probe(ScanAll(f), f.OrderDate)
	for _, i := range joined {
		if f.OrderDate[i]/10000 != 1994 {
			t.Fatalf("join passed wrong year: %d", f.OrderDate[i])
		}
	}
	if len(joined) == 0 {
		t.Fatal("join empty; generator should cover 1994")
	}
}

func TestGroupSumMergeEquivalence(t *testing.T) {
	// Partial-per-chunk + merge must equal single-chunk execution for
	// every query: the invariant that makes parallel Dandelion
	// execution correct.
	db := testDB(t)
	for _, q := range Queries() {
		single, err := RunQuery(db, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := RunQuery(db, q, 16)
		if err != nil {
			t.Fatal(err)
		}
		a, b := single.Rows(), parallel.Rows()
		if len(a) != len(b) {
			t.Fatalf("%s: group counts %d vs %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: group %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
		if len(a) == 0 {
			t.Fatalf("%s: produced no groups", q)
		}
	}
}

func TestQ11MatchesNaive(t *testing.T) {
	db := testDB(t)
	got, err := RunQuery(db, Q11, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Naive reference.
	years := map[int32]int32{}
	for _, d := range db.Dates {
		years[d.DateKey] = d.Year
	}
	var want int64
	f := db.Facts
	for i := 0; i < f.Len(); i++ {
		if years[f.OrderDate[i]] == 1993 && f.Discount[i] >= 1 && f.Discount[i] <= 3 && f.Quantity[i] < 25 {
			want += int64(f.ExtendedPrice[i]) * int64(f.Discount[i])
		}
	}
	rows := got.Rows()
	if len(rows) != 1 || rows[0].Sum != want {
		t.Fatalf("Q1.1 = %+v, want sum %d", rows, want)
	}
}

func TestQ21GroupKeysShape(t *testing.T) {
	db := testDB(t)
	g, _ := RunQuery(db, Q21, 4)
	for _, row := range g.Rows() {
		parts := strings.Split(row.Key, "|")
		if len(parts) != 2 || !strings.HasPrefix(parts[1], "MFGR#12") {
			t.Fatalf("Q2.1 key %q", row.Key)
		}
	}
}

func TestQ31OnlyAsia(t *testing.T) {
	db := testDB(t)
	g, _ := RunQuery(db, Q31, 4)
	asia := map[string]bool{}
	for _, n := range nations["ASIA"] {
		asia[n] = true
	}
	for _, row := range g.Rows() {
		parts := strings.Split(row.Key, "|")
		if len(parts) != 3 || !asia[parts[0]] || !asia[parts[1]] {
			t.Fatalf("Q3.1 key %q not ASIA/ASIA", row.Key)
		}
	}
}

func TestQ41ProfitCanBeComputed(t *testing.T) {
	db := testDB(t)
	g, _ := RunQuery(db, Q41, 4)
	if len(g.Rows()) == 0 {
		t.Fatal("Q4.1 empty")
	}
}

func TestUnknownQuery(t *testing.T) {
	db := Generate(100, 1)
	if _, err := RunQuery(db, QueryID("Q9.9"), 1); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestEncodeDecodePartials(t *testing.T) {
	g := NewGroupSum()
	g.Add("1993|MFGR#121", 500)
	g.Add("1994|MFGR#122", 700)
	g.Add("1993|MFGR#121", 250)
	back, err := DecodeGroupSum(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Rows(), back.Rows()
	if len(a) != len(b) {
		t.Fatal("row count mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if _, err := DecodeGroupSum([]byte("bad\tline")); err == nil {
		t.Fatal("malformed partial accepted")
	}
	if _, err := DecodeGroupSum([]byte("k\tx\t1")); err == nil {
		t.Fatal("non-numeric sum accepted")
	}
}

// A partial row's numbers are whole fields: a number followed or
// preceded by anything else is malformed, not a shorter number.
func TestDecodeGroupSumRejectsMalformedNumbers(t *testing.T) {
	for _, row := range []string{"k\t12abc\t1", "k\t 5\t1", "k\t5\t1 2", "k\t5\t1x"} {
		if g, err := DecodeGroupSum([]byte(row)); err == nil {
			t.Errorf("DecodeGroupSum(%q) accepted: %+v", row, g.Rows())
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(sums []int64) bool {
		g := NewGroupSum()
		for i, s := range sums {
			g.Add(string(rune('a'+i%20)), s)
		}
		back, err := DecodeGroupSum(g.Encode())
		if err != nil {
			return false
		}
		a, b := g.Rows(), back.Rows()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceView(t *testing.T) {
	db := Generate(100, 3)
	s := db.Facts.Slice(10, 20)
	if s.Len() != 10 || s.OrderKey[0] != db.Facts.OrderKey[10] {
		t.Fatal("slice view wrong")
	}
}
