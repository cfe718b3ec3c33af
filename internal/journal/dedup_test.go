package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dandelion/internal/memctx"
)

// refDedup is the reference the completed-key table is held to: a map,
// a FIFO of completion order and a pending set, keeping each cached
// reply as a deep copy of what Complete was given.
type refDedup struct {
	max         int
	done        map[string]refEntry
	order       []string
	pending     map[string]bool
	hits        uint64
	sets, bytes uint64
}

type refEntry struct {
	digest uint64
	outs   map[string][]memctx.Item // nil: digest only
}

func newRefDedup(max int) *refDedup {
	return &refDedup{max: max, done: map[string]refEntry{}, pending: map[string]bool{}}
}

func (r *refDedup) reserve(key string) (map[string][]memctx.Item, error, bool) {
	if e, ok := r.done[key]; ok {
		r.hits++
		if e.outs != nil {
			return e.outs, nil, false
		}
		return nil, ErrDuplicate, false
	}
	if r.pending[key] {
		r.hits++
		return nil, ErrInFlight, false
	}
	r.pending[key] = true
	return nil, nil, true
}

func (r *refDedup) complete(key string, digest uint64, outs map[string][]memctx.Item) {
	delete(r.pending, key)
	if _, ok := r.done[key]; ok {
		return
	}
	e := refEntry{digest: digest}
	n := 0
	for _, items := range outs {
		for _, it := range items {
			n += len(it.Data)
		}
	}
	if outs != nil && n <= maxCachedOutputBytes {
		e.outs = cloneOutputs(outs)
		r.sets += uint64(len(outs))
		r.bytes += uint64(n)
	}
	r.add(key, e)
}

func (r *refDedup) markReplayed(key string, digest uint64) {
	if _, ok := r.done[key]; !ok {
		r.add(key, refEntry{digest: digest})
	}
}

func (r *refDedup) add(key string, e refEntry) {
	r.done[key] = e
	r.order = append(r.order, key)
	for len(r.order) > r.max {
		delete(r.done, r.order[0])
		r.order = r.order[1:]
	}
}

func cloneOutputs(outs map[string][]memctx.Item) map[string][]memctx.Item {
	c := make(map[string][]memctx.Item, len(outs))
	for name, items := range outs {
		cp := make([]memctx.Item, len(items))
		for i, it := range items {
			cp[i] = memctx.Item{Name: it.Name, Key: it.Key}
			if it.Data != nil {
				cp[i].Data = append([]byte{}, it.Data...)
			}
		}
		c[name] = cp
	}
	return c
}

// bigPayload is shared by the oversized replies the schedules complete:
// the table keeps only their digest, so nothing aliases it.
var bigPayload = make([]byte, maxCachedOutputBytes+1)

// dedupReply builds reply number kind for a schedule: no outputs, no
// sets, an empty set, a nil payload, an empty payload, an ordinary
// reply, an outcome over maxCachedOutputBytes, or one exactly at it.
func dedupReply(kind int, rng *rand.Rand) map[string][]memctx.Item {
	switch kind % 8 {
	case 0:
		return nil
	case 1:
		return map[string][]memctx.Item{}
	case 2:
		return map[string][]memctx.Item{"Empty": {}}
	case 3:
		return map[string][]memctx.Item{"Out": {{Name: "nil"}}}
	case 4:
		return map[string][]memctx.Item{"Out": {{Name: "empty", Data: []byte{}}}}
	case 5:
		data := make([]byte, rng.Intn(700))
		rng.Read(data)
		return map[string][]memctx.Item{
			"Out": {{Name: "a", Key: "k/a", Data: data[:len(data)/2]}, {Name: "b", Data: data[len(data)/2:]}},
			"Log": {{Name: fmt.Sprint(rng.Intn(1000)), Data: []byte("ok\n")}},
		}
	case 6:
		return map[string][]memctx.Item{"Out": {{Name: "big", Data: bigPayload}}}
	default:
		return map[string][]memctx.Item{"Out": {{Name: "max", Data: make([]byte, maxCachedOutputBytes)}}}
	}
}

// dedupKey names key number i of a schedule's key space: short keys,
// the empty key, and a long one.
func dedupKey(i int) string {
	switch i {
	case 0:
		return ""
	case 1:
		return string(bytes.Repeat([]byte("long-key/"), 40))
	}
	return fmt.Sprintf("bench-%d#%d", i/3, i%3)
}

// dedupOp is one step of a schedule: which call, on which key, with
// which reply kind and digest.
type dedupOp struct {
	op, key, reply int
	digest         uint64
}

// errClass names the class of a Reserve error: nil, duplicate or in flight.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrDuplicate):
		return "duplicate"
	case errors.Is(err, ErrInFlight):
		return "in-flight"
	}
	return "other: " + err.Error()
}

// checkDedupSchedule runs ops against d and a fresh reference bounded to
// max, comparing every answer and the counters after every step. It
// reports the first divergence as an error.
func checkDedupSchedule(d *Dedup, max, keys int, ops []dedupOp, rng *rand.Rand) error {
	ref := newRefDedup(max)
	for i, o := range ops {
		key := dedupKey(o.key % keys)
		switch o.op % 6 {
		case 0, 1:
			outs, err, execute := d.Reserve(key)
			wOuts, wErr, wExecute := ref.reserve(key)
			if execute != wExecute || errClass(err) != errClass(wErr) || !reflect.DeepEqual(outs, wOuts) {
				return fmt.Errorf("op %d: Reserve(%q) = %v, %v, %v; reference %v, %v, %v",
					i, key, len(outs), errClass(err), execute, len(wOuts), errClass(wErr), wExecute)
			}
		case 2:
			outs := dedupReply(o.reply, rng)
			d.Complete(key, o.digest, outs)
			ref.complete(key, o.digest, outs)
			// The caller reuses its buffers once the reply is sent.
			for _, items := range outs {
				for _, it := range items {
					if len(it.Data) > 0 && len(it.Data) < maxCachedOutputBytes {
						it.Data[0] ^= 0xff
					}
				}
			}
		case 3:
			d.Release(key)
			delete(ref.pending, key)
		case 4:
			d.MarkReplayed(key, o.digest)
			ref.markReplayed(key, o.digest)
		case 5:
			digest, done := d.Lookup(key)
			e, wDone := ref.done[key]
			if done != wDone || digest != e.digest {
				return fmt.Errorf("op %d: Lookup(%q) = %016x, %v; reference %016x, %v", i, key, digest, done, e.digest, wDone)
			}
		}
		if n := d.Len(); n != len(ref.done) {
			return fmt.Errorf("op %d: Len = %d, reference %d", i, n, len(ref.done))
		}
		if h := d.Hits(); h != ref.hits {
			return fmt.Errorf("op %d: Hits = %d, reference %d", i, h, ref.hits)
		}
		if sets, n := d.Copied(); sets != ref.sets || n != ref.bytes {
			return fmt.Errorf("op %d: Copied = %d sets %d bytes, reference %d %d", i, sets, n, ref.sets, ref.bytes)
		}
	}
	return nil
}

// randomDedupOps draws a schedule over keys keys: mostly Reserve and
// Complete, so keys complete, hit and get evicted; rarely the
// megabyte replies.
func randomDedupOps(rng *rand.Rand, n, keys int) []dedupOp {
	ops := make([]dedupOp, n)
	for i := range ops {
		reply := rng.Intn(7)
		if rng.Intn(20) > 0 && reply >= 6 {
			reply = 5
		}
		if rng.Intn(200) == 0 {
			reply = 7
		}
		ops[i] = dedupOp{op: rng.Intn(6), key: rng.Intn(keys), reply: reply, digest: rng.Uint64()}
	}
	return ops
}

// collidingHashMask sends every key to one of four hashes, so that
// schedules run through the log's same-hash chains and their eviction.
const collidingHashMask = 3

// TestDedupMatchesReference is the table's differential test: seeded
// random schedules of Reserve, Complete, Release, MarkReplayed, Lookup
// and Len, with max from 1 to 8, must give the reference's answers,
// error classes, Hits, Copied and Len at every step — with the real
// key hash, and with one that sends every key to one of four values.
func TestDedupMatchesReference(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), collidingHashMask} {
		for max := 1; max <= 8; max++ {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(max)))
				keys := 2*max + 3
				ops := randomDedupOps(rng, 1500, keys)
				if err := checkDedupSchedule(newDedup(max, mask), max, keys, ops, rng); err != nil {
					t.Fatalf("hash mask %x, max %d, seed %d: %v", mask, max, seed, err)
				}
			}
		}
	}
}

// completeOne reserves and completes key with one payload.
func completeOne(d *Dedup, key string, data []byte) {
	d.Reserve(key)
	d.Complete(key, 1, map[string][]memctx.Item{"Out": {{Name: "r", Data: data}}})
}

// TestDedupHitOutlivesEntry: a hit's outputs belong to the caller. They
// keep their bytes after the entry is evicted and the table has moved
// far past where it stored them, and overwriting them does not reach
// the replies of keys still in the table.
func TestDedupHitOutlivesEntry(t *testing.T) {
	const keep, filler = 4, 2000
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 'p'}, 200) }
	d := NewDedup(keep)
	completeOne(d, "first", payload(-1))
	hit, err, execute := d.Reserve("first")
	if execute || err != nil {
		t.Fatalf("reserve first: execute=%v err=%v", execute, err)
	}
	for i := 0; i < filler; i++ {
		completeOne(d, fmt.Sprint("k", i), payload(i))
	}
	if _, done := d.Lookup("first"); done {
		t.Fatal("first survived eviction")
	}
	got := hit["Out"][0].Data
	if !bytes.Equal(got, payload(-1)) {
		t.Fatalf("evicted hit's outputs changed: % x...", got[:8])
	}
	for i := range got {
		got[i] = 0xAA
	}
	for i := filler - keep; i < filler; i++ {
		outs, err, _ := d.Reserve(fmt.Sprint("k", i))
		if err != nil || !bytes.Equal(outs["Out"][0].Data, payload(i)) {
			t.Fatalf("live key k%d after overwrite: err=%v", i, err)
		}
	}
}

// FuzzDedup holds the table to the reference on fuzzer-written
// schedules: the first byte sets max (1 to 8) and, with its bit 3,
// the colliding key hash; then every three bytes name a call, a key
// and a reply kind.
func FuzzDedup(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 2, 1, 5, 0, 1, 5})
	f.Add([]byte{3, 0, 2, 3, 2, 2, 4, 0, 2, 0, 4, 3, 0, 5, 0, 0, 4, 0, 2, 3, 6, 0, 3, 6})
	f.Add([]byte{8 | 2, 2, 3, 5, 2, 4, 5, 2, 5, 5, 2, 6, 5, 0, 3, 0, 0, 4, 0, 5, 6, 2, 7, 5, 0, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		max := 1 + int(data[0]%8)
		keys := 2*max + 3
		var ops []dedupOp
		for p := data[1:]; len(p) >= 3; p = p[3:] {
			ops = append(ops, dedupOp{op: int(p[0]), key: int(p[1]), reply: int(p[2]), digest: uint64(p[1])<<8 | uint64(p[2])})
		}
		mask := ^uint64(0)
		if data[0]&8 != 0 {
			mask = collidingHashMask
		}
		if err := checkDedupSchedule(newDedup(max, mask), max, keys, ops, rand.New(rand.NewSource(int64(len(data))))); err != nil {
			t.Fatal(err)
		}
	})
}
