package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dandelion/internal/memctx"
)

// TestIndependentStatementsOverlap: two statements with no data
// dependency run at the same time. Each one signals that it started and
// then waits for the other's signal, so an executor that ran them one
// after the other would have the first time out. A third statement joins
// both.
func TestIndependentStatementsOverlap(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 2})
	left, right := make(chan struct{}), make(chan struct{})
	meet := func(name string, mine, theirs chan struct{}) GoFunc {
		return func([]memctx.Set) ([]memctx.Set, error) {
			close(mine)
			select {
			case <-theirs:
			case <-time.After(5 * time.Second):
				return nil, fmt.Errorf("%s ran alone: its peer never started", name)
			}
			return []memctx.Set{{Name: "Out", Items: []memctx.Item{{Name: name, Data: []byte(name)}}}}, nil
		}
	}
	p.RegisterFunction(ComputeFunc{Name: "Left", Go: meet("left", left, right)})
	p.RegisterFunction(ComputeFunc{Name: "Right", Go: meet("right", right, left)})
	p.RegisterFunction(ComputeFunc{Name: "Join", Go: concat})
	if _, err := p.RegisterCompositionText(`
composition Both(In) => Result {
    Left(x = all In) => (l = Out);
    Right(x = all In) => (r = Out);
    Join(a = all l, b = all r) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "Both", Inputs: map[string][]memctx.Item{"In": items("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out["Result"]; len(got) != 1 || string(got[0].Data) != "left|right" {
		t.Fatalf("result = %+v, want left|right", got)
	}
}

// goroutineIDs lists the ids of every live goroutine.
func goroutineIDs() map[string]bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	ids := map[string]bool{}
	for _, line := range strings.Split(string(buf), "\n") {
		if id, ok := strings.CutPrefix(line, "goroutine "); ok {
			ids[strings.Fields(id)[0]] = true
		}
	}
	return ids
}

// TestChainStartsNoStatementGoroutine: a chain of statements runs on
// the goroutine that called Invoke. While the first statement executes,
// no goroutine that did not exist before Invoke is alive. Goroutines
// are compared by id, so one still exiting from an earlier test cannot
// hide one the chain started.
func TestChainStartsNoStatementGoroutine(t *testing.T) {
	p := newPlatform(t, Options{})
	var before map[string]bool
	var started []string
	p.RegisterFunction(ComputeFunc{Name: "Count", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		for id := range goroutineIDs() {
			if !before[id] {
				started = append(started, id)
			}
		}
		return []memctx.Set{{Name: "Out", Items: in[0].Items}}, nil
	}})
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
	if _, err := p.RegisterCompositionText(`
composition Chain(In) => Result {
    Count(x = all In) => (a = Out);
    Upper(x = all a) => (b = Out);
    Upper(x = all b) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	before = goroutineIDs()
	out, err := p.Invoke(context.Background(), Request{Composition: "Chain", Inputs: map[string][]memctx.Item{"In": items("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out["Result"]; len(got) != 1 || string(got[0].Data) != "X" {
		t.Fatalf("result = %+v, want X", got)
	}
	if len(started) != 0 {
		t.Fatalf("goroutines %v started by the time the first statement ran, want none", started)
	}
}

// TestMergeDoesNotWriteThroughAlias: a binding filled by one output set
// aliases that set's items instead of copying them. Here the first
// instance hands back its input, a one-item window into the value
// parts, and the others return fresh items. Merging them must copy,
// not append into the window, or parts would read new|new past its
// first item.
func TestMergeDoesNotWriteThroughAlias(t *testing.T) {
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Fan", Go: fanout(3)})
	p.RegisterFunction(ComputeFunc{Name: "Pick", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		if string(in[0].Items[0].Data) == "0" {
			return []memctx.Set{{Name: "Out", Items: in[0].Items}}, nil
		}
		return []memctx.Set{{Name: "Out", Items: []memctx.Item{{Name: "n", Data: []byte("new")}}}}, nil
	}})
	p.RegisterFunction(ComputeFunc{Name: "Join", Go: concat})
	if _, err := p.RegisterCompositionText(`
composition M(In) => Result {
    Fan(x = all In) => (parts = Out);
    Pick(x = each parts) => (picked = Out);
    Join(a = all parts, b = all picked) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "M", Inputs: map[string][]memctx.Item{"In": items("seed")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out["Result"]; len(got) != 1 || string(got[0].Data) != "0|1|2|0|new|new" {
		t.Fatalf("result = %+v, want 0|1|2|0|new|new", got)
	}
}

// BenchmarkInvoke measures one Invoke of a small payload through three
// composition shapes of an identity function: one statement, a chain of
// three, and a diamond (one statement feeding two independent ones that
// a fourth joins).
func BenchmarkInvoke(b *testing.B) {
	p, err := NewPlatform(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Shutdown()
	id := func(in []memctx.Set) ([]memctx.Set, error) {
		var out []memctx.Item
		for _, s := range in {
			out = append(out, s.Items...)
		}
		return []memctx.Set{{Name: "Out", Items: out}}, nil
	}
	if err := p.RegisterFunction(ComputeFunc{Name: "Id", Go: id}); err != nil {
		b.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition One(In) => Result {
    Id(x = all In) => (Result = Out);
}
composition Chain(In) => Result {
    Id(x = all In) => (a = Out);
    Id(x = all a) => (b = Out);
    Id(x = all b) => (Result = Out);
}
composition Diamond(In) => Result {
    Id(x = all In) => (a = Out);
    Id(x = all a) => (l = Out);
    Id(x = all a) => (r = Out);
    Id(x = all l, y = all r) => (Result = Out);
}`); err != nil {
		b.Fatal(err)
	}
	input := map[string][]memctx.Item{"In": {{Name: "x", Data: make([]byte, 64)}}}
	for _, c := range []struct{ name, comp string }{
		{"one", "One"}, {"chain3", "Chain"}, {"diamond", "Diamond"},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := Request{Composition: c.comp, Inputs: input}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Invoke(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
