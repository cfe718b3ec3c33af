package memctx

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// newCtx draws a context bounded at limit from the context pool.
func newCtx(limit int) *Context {
	c, _ := NewPooled(limit)
	return c
}

func TestBoundsEnforced(t *testing.T) {
	big := []Item{{Name: "x", Data: make([]byte, 65)}}
	if err := newCtx(64).AddInputSet(Set{Name: "in", Items: big}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oversized input err = %v", err)
	}
	if err := newCtx(64).AdoptInputSetBorrowed(Set{Name: "in", Items: big}, nil); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oversized adopted input err = %v", err)
	}
	if err := newCtx(64).SetOutputs([]Set{{Name: "out", Items: big}}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oversized outputs err = %v", err)
	}
	if err := newCtx(64).AdoptOutputs([]Set{{Name: "out", Items: big}}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oversized adopted outputs err = %v", err)
	}
	// Inputs and outputs share one bound: 40 bytes in leave 24 out.
	c := newCtx(64)
	if err := c.AddInputSet(Set{Name: "in", Items: []Item{{Data: make([]byte, 40)}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AdoptOutputs([]Set{{Name: "out", Items: []Item{{Data: make([]byte, 25)}}}}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("outputs past the shared bound err = %v", err)
	}
	if err := c.AdoptOutputs([]Set{{Name: "out", Items: []Item{{Data: make([]byte, 24)}}}}); err != nil {
		t.Fatalf("outputs within the bound: %v", err)
	}
}

func TestDefaultLimit(t *testing.T) {
	for _, limit := range []int{0, -1} {
		if c, _ := NewPooled(limit); c.limit != DefaultLimit {
			t.Fatalf("NewPooled(%d) limit = %d, want default", limit, c.limit)
		}
	}
}

func TestCommittedHighWaterMark(t *testing.T) {
	c := newCtx(1 << 20)
	if c.CommittedBytes() != 0 {
		t.Fatal("fresh context should commit nothing")
	}
	c.AddInputSet(Set{Name: "a", Items: []Item{{Data: make([]byte, 100)}}})
	c.AdoptInputSetBorrowed(Set{Name: "b", Items: []Item{{Data: make([]byte, 10)}}}, nil)
	if got := c.CommittedBytes(); got != 110 {
		t.Fatalf("committed = %d, want 110", got)
	}
	c.AdoptOutputs([]Set{{Name: "o", Items: []Item{{Data: make([]byte, 5)}}}})
	c.Seal()
	c.TakeOutputs()
	// Taking the outputs moves them, it does not uncharge them.
	if got := c.CommittedBytes(); got != 115 {
		t.Fatalf("committed = %d, want 115", got)
	}
}

func TestSealBlocksWrites(t *testing.T) {
	c := newCtx(128)
	c.Seal()
	if err := c.AddInputSet(Set{Name: "x"}); !errors.Is(err, ErrSealed) {
		t.Fatalf("AddInputSet on sealed err = %v", err)
	}
	if err := c.AdoptInputSetBorrowed(Set{Name: "y"}, nil); !errors.Is(err, ErrSealed) {
		t.Fatalf("AdoptInputSetBorrowed on sealed err = %v", err)
	}
	if err := c.SetOutputs(nil); !errors.Is(err, ErrSealed) {
		t.Fatalf("SetOutputs on sealed err = %v", err)
	}
	if err := c.AdoptOutputs(nil); !errors.Is(err, ErrSealed) {
		t.Fatalf("AdoptOutputs on sealed err = %v", err)
	}
	// Taking is allowed: it is what sealing is for.
	if _, err := c.TakeOutputs(); err != nil {
		t.Fatalf("TakeOutputs from sealed err = %v", err)
	}
}

func TestInputSets(t *testing.T) {
	c := newCtx(1 << 20)
	in := Set{Name: "args", Items: []Item{{Name: "a", Data: []byte("1")}, {Name: "b", Data: []byte("22")}}}
	if err := c.AddInputSet(in); err != nil {
		t.Fatal(err)
	}
	if err := c.AddInputSet(Set{Name: "args"}); !errors.Is(err, ErrDuplicateSet) {
		t.Fatalf("duplicate set err = %v", err)
	}
	if err := c.AdoptInputSetBorrowed(Set{Name: "args"}, nil); !errors.Is(err, ErrDuplicateSet) {
		t.Fatalf("duplicate adopted set err = %v", err)
	}
	got := c.ShareInputSets()
	if len(got) != 1 || got[0].Name != "args" || len(got[0].Items) != 2 || got[0].Items[1].Name != "b" {
		t.Fatalf("input sets mismatch: %+v", got)
	}
	// AddInputSet copies: mutating the caller's set must not reach the
	// context.
	in.Items[0].Data[0] = 'X'
	if again := c.ShareInputSets(); again[0].Items[0].Data[0] != '1' {
		t.Fatal("AddInputSet aliased the caller's memory")
	}
	if c.CommittedBytes() != 3 {
		t.Fatalf("committed = %d, want 3", c.CommittedBytes())
	}
}

func TestInputLimitCharged(t *testing.T) {
	c := newCtx(10)
	err := c.AddInputSet(Set{Name: "big", Items: []Item{{Name: "x", Data: make([]byte, 11)}}})
	if !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oversized input err = %v", err)
	}
}

func TestOutputs(t *testing.T) {
	c := newCtx(1 << 20)
	payload := []byte("abc")
	sets := []Set{
		{Name: "out1", Items: []Item{{Name: "r", Data: payload}}},
		{Name: "out2"},
	}
	if err := c.SetOutputs([]Set{{Name: "d"}, {Name: "d"}}); !errors.Is(err, ErrDuplicateSet) {
		t.Fatalf("duplicate outputs err = %v", err)
	}
	if err := c.AdoptOutputs([]Set{{Name: "d"}, {Name: "d"}}); !errors.Is(err, ErrDuplicateSet) {
		t.Fatalf("duplicate adopted outputs err = %v", err)
	}
	if err := c.SetOutputs(sets); err != nil {
		t.Fatal(err)
	}
	// SetOutputs copies: mutating the producer's buffer must not reach
	// the taken set.
	payload[0] = 'X'
	c.Seal()
	got, err := c.TakeOutputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "out1" || got[1].Name != "out2" {
		t.Fatalf("outputs = %+v", got)
	}
	if string(got[0].Items[0].Data) != "abc" {
		t.Fatalf("output mismatch: %q", got[0].Items[0].Data)
	}
}

// TestTakeOutputs: the dispatcher-side handoff moves all sets out
// without cloning, and leaves none behind to read or take again.
func TestTakeOutputs(t *testing.T) {
	c := newCtx(1 << 10)
	if _, err := c.TakeOutputs(); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("take from unsealed err = %v, want ErrNotSealed", err)
	}
	payload := []byte("shared")
	c.AdoptOutputs([]Set{
		{Name: "a", Items: []Item{{Name: "x", Data: payload}}},
		{Name: "b"},
	})
	c.Seal()
	taken, err := c.TakeOutputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(taken) != 2 || taken[0].Name != "a" || taken[1].Name != "b" {
		t.Fatalf("taken = %+v", taken)
	}
	// Zero-copy: the taken set aliases the adopted payload.
	if &taken[0].Items[0].Data[0] != &payload[0] {
		t.Fatal("TakeOutputs cloned the payload")
	}
	if got, err := c.TakeOutputs(); err != nil || len(got) != 0 {
		t.Fatalf("second take = %v sets, err %v", len(got), err)
	}
}

// TestConcurrentTakeOutputs: many goroutines race to take one sealed
// context's outputs under the race detector. Ownership stays unique:
// exactly one of them gets the sets, every other gets none.
func TestConcurrentTakeOutputs(t *testing.T) {
	const n = 32
	c := newCtx(1 << 20)
	sets := make([]Set, n)
	for i := range sets {
		sets[i] = Set{Name: fmt.Sprint("s", i), Items: []Item{{Name: "x", Data: []byte{byte(i)}}}}
	}
	if err := c.AdoptOutputs(sets); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	var wg sync.WaitGroup
	got := make([]int, n)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			taken, err := c.TakeOutputs()
			if err != nil {
				t.Error(err)
			}
			got[i] = len(taken)
		}()
	}
	wg.Wait()
	winners := 0
	for _, k := range got {
		switch k {
		case 0:
		case n:
			winners++
		default:
			t.Fatalf("a taker got %d of %d sets", k, n)
		}
	}
	if winners != 1 {
		t.Fatalf("%d takers got the sets, want exactly 1", winners)
	}
}

// TestAdoptInputSet: zero-copy input install shares payloads instead
// of cloning them, but keeps the copying path's protections: duplicate
// and sealed rejection, committed-bytes accounting, and memory-limit
// enforcement (zero-copy changes how bytes move, not how much memory a
// function may hold).
func TestAdoptInputSet(t *testing.T) {
	c := newCtx(1 << 20)
	payload := make([]byte, 1<<10)
	payload[0] = 7
	if err := c.AdoptInputSetBorrowed(Set{Name: "in", Items: []Item{{Name: "x", Data: payload}}}, nil); err != nil {
		t.Fatal(err)
	}
	if c.CommittedBytes() != len(payload) {
		t.Fatalf("adoption charged %d bytes, want %d", c.CommittedBytes(), len(payload))
	}
	if err := c.AdoptInputSetBorrowed(Set{Name: "in"}, nil); !errors.Is(err, ErrDuplicateSet) {
		t.Fatalf("duplicate adopt err = %v", err)
	}
	shared := c.ShareInputSets()
	if len(shared) != 1 || &shared[0].Items[0].Data[0] != &payload[0] {
		t.Fatal("ShareInputSets did not alias the adopted payload")
	}
	c.Seal()
	if err := c.AdoptInputSetBorrowed(Set{Name: "in2"}, nil); !errors.Is(err, ErrSealed) {
		t.Fatalf("adopt into sealed err = %v", err)
	}

	// Limits hold in zero-copy mode, for inputs and outputs alike.
	small := newCtx(16)
	if err := small.AdoptInputSetBorrowed(Set{Name: "big", Items: []Item{{Name: "x", Data: payload}}}, nil); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oversized adopt err = %v, want ErrOutOfBounds", err)
	}
	if err := small.AdoptOutputs([]Set{{Name: "big", Items: []Item{{Name: "x", Data: payload}}}}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oversized adopted outputs err = %v, want ErrOutOfBounds", err)
	}
}

func TestGroupByKey(t *testing.T) {
	s := Set{Name: "logs", Items: []Item{
		{Name: "a", Key: "srv2", Data: []byte("2a")},
		{Name: "b", Key: "srv1", Data: []byte("1b")},
		{Name: "c", Key: "srv2", Data: []byte("2c")},
	}}
	groups := GroupByKey(s)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[0].Items[0].Key != "srv1" {
		t.Fatalf("groups not key-ordered: %+v", groups)
	}
	if len(groups[1].Items) != 2 {
		t.Fatalf("srv2 group size = %d, want 2", len(groups[1].Items))
	}
}

func TestGroupByKeyEmpty(t *testing.T) {
	if g := GroupByKey(Set{Name: "e"}); len(g) != 0 {
		t.Fatalf("empty set grouped to %d groups", len(g))
	}
}

func TestSetTotalBytes(t *testing.T) {
	s := Set{Items: []Item{{Data: make([]byte, 3)}, {Data: make([]byte, 4)}}}
	if s.TotalBytes() != 7 {
		t.Fatalf("TotalBytes = %d, want 7", s.TotalBytes())
	}
}
