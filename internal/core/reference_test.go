package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dandelion/internal/dsl"
	"dandelion/internal/graph"
	"dandelion/internal/memctx"
)

// The reference: a sequential interpreter of the §4 composition
// semantics, the executable spec the differential test below holds
// Invoke and InvokeBatch to. It runs one statement at a time in
// declaration order, expands instances with all/each/key, calls the
// functions directly and merges their outputs in instance order. It
// knows nothing of engines, chunks, value stores or plans.
//
// Statements without a data dependency run concurrently in the
// platform, and a failure stops the statements that have not started
// yet, so which of two independent failures a request reports is a
// race. The reference therefore answers with the set of errors a
// request may report: the failures of every statement whose
// dependencies all succeeded. An empty set means the request succeeds
// with the outputs given.

// refErr is one error a request may report: the sentinel it wraps and
// the chain of statement labels it is wrapped in, outermost first.
type refErr struct {
	label    string
	sentinel error
}

// errRefTooBig aborts a generated request whose instance count outgrows
// the interpreter's budget; the generator draws another.
var errRefTooBig = errors.New("reference: case too big")

type refInterp struct {
	comps    map[string]*graph.Composition
	funcs    map[string]GoFunc // compute and communication functions
	maxDepth int
	budget   int // instances left before errRefTooBig
}

// run interprets composition name on inputs at nesting depth depth.
func (ri *refInterp) run(name string, inputs map[string][]memctx.Item, depth int) (map[string][]memctx.Item, []refErr) {
	if depth >= ri.maxDepth {
		return nil, []refErr{{sentinel: ErrTooDeep}}
	}
	c := ri.comps[name]
	vals := map[string][]memctx.Item{}
	for _, in := range c.Inputs {
		items, ok := inputs[in]
		if !ok {
			return nil, []refErr{{sentinel: ErrMissingInput}}
		}
		vals[in] = items
	}
	producer := map[string]int{}
	failed := make([]bool, len(c.Stmts)) // failed, or never ran
	var errs []refErr
	for i, st := range c.Stmts {
		for _, a := range st.Args {
			if j, ok := producer[a.Value]; ok && failed[j] {
				failed[i] = true
			}
		}
		for _, r := range st.Rets {
			producer[r.Value] = i
		}
		if failed[i] {
			continue
		}
		label := fmt.Sprintf("core: %s: statement %d (%s): ", name, i, st.Func)
		if serrs := ri.stmt(st, vals, depth); serrs != nil {
			failed[i] = true
			for _, e := range serrs {
				errs = append(errs, refErr{label: label + e.label, sentinel: e.sentinel})
			}
		}
	}
	if errs != nil {
		return nil, errs
	}
	out := map[string][]memctx.Item{}
	for _, b := range c.Outputs {
		out[b.Name] = vals[b.Value]
	}
	return out, nil
}

// stmt runs one statement, defining its return values in vals.
func (ri *refInterp) stmt(st graph.Stmt, vals map[string][]memctx.Item, depth int) []refErr {
	// §4.4: an empty non-optional input suppresses the statement and
	// defines every return value empty.
	for _, a := range st.Args {
		if len(vals[a.Value]) == 0 && !a.Optional {
			for _, r := range st.Rets {
				vals[r.Value] = nil
			}
			return nil
		}
	}
	// Distribute: each argument becomes a list of groups. An argument
	// with one group broadcasts; every argument with more must agree on
	// the count, which is the instance count.
	groups := make([][][]memctx.Item, len(st.Args))
	n := 1
	for ai, a := range st.Args {
		items := vals[a.Value]
		switch a.Mode {
		case graph.All:
			groups[ai] = [][]memctx.Item{items}
		case graph.Each:
			for k := range items {
				groups[ai] = append(groups[ai], items[k:k+1])
			}
		case graph.Key:
			byKey := map[string][]memctx.Item{}
			for _, it := range items {
				byKey[it.Key] = append(byKey[it.Key], it)
			}
			keys := make([]string, 0, len(byKey))
			for k := range byKey {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				groups[ai] = append(groups[ai], byKey[k])
			}
		}
		if len(groups[ai]) == 0 { // an empty optional argument
			groups[ai] = [][]memctx.Item{nil}
		}
		if g := len(groups[ai]); g > 1 {
			if n > 1 && g != n {
				return []refErr{{sentinel: ErrInstanceFanout}}
			}
			n = g
		}
	}
	merged := make([][]memctx.Item, len(st.Rets))
	for i := 0; i < n; i++ {
		inst := make([]memctx.Set, len(st.Args))
		for ai, a := range st.Args {
			inst[ai] = memctx.Set{Name: a.Param, Items: groups[ai][0]}
			if len(groups[ai]) > 1 {
				inst[ai].Items = groups[ai][i]
			}
		}
		if ri.budget--; ri.budget < 0 {
			panic(errRefTooBig)
		}
		var outs []memctx.Set
		if f, ok := ri.funcs[st.Func]; ok {
			var err error
			if outs, err = f(inst); err != nil {
				return []refErr{{label: err.Error(), sentinel: errRefMarker}}
			}
		} else {
			child := map[string][]memctx.Item{}
			for _, s := range inst {
				child[s.Name] = s.Items
			}
			cout, cerrs := ri.run(st.Func, child, depth+1)
			if cerrs != nil {
				return cerrs // the first failing instance decides
			}
			for name, items := range cout {
				outs = append(outs, memctx.Set{Name: name, Items: items})
			}
		}
		for ri2, r := range st.Rets {
			for _, s := range outs {
				if s.Name == r.Set {
					merged[ri2] = append(merged[ri2], s.Items...)
				}
			}
		}
	}
	for ri2, r := range st.Rets {
		vals[r.Value] = merged[ri2]
	}
	return nil
}

// The pure functions generated compositions run over.

var errRefMarker = errors.New("reference: marker item")

// refCat joins every input item's payload with '|' into one item keyed
// like the first input item.
func refCat(in []memctx.Set) ([]memctx.Set, error) {
	var parts [][]byte
	key := ""
	for _, s := range in {
		for _, it := range s.Items {
			if parts == nil {
				key = it.Key
			}
			parts = append(parts, it.Data)
		}
	}
	return []memctx.Set{{Name: "Out", Items: []memctx.Item{{Name: "cat", Key: key, Data: bytes.Join(parts, []byte("|"))}}}}, nil
}

// refSplit splits every input item at '|' into items keyed by length.
func refSplit(in []memctx.Set) ([]memctx.Set, error) {
	out := memctx.Set{Name: "Out"}
	for _, s := range in {
		for _, it := range s.Items {
			for j, part := range bytes.Split(it.Data, []byte("|")) {
				out.Items = append(out.Items, memctx.Item{
					Name: fmt.Sprintf("%s.%d", it.Name, j), Key: string(rune('a' + len(part)%3)), Data: part,
				})
			}
		}
	}
	return []memctx.Set{out}, nil
}

// refFail passes its items through unless one carries the marker '!'.
func refFail(in []memctx.Set) ([]memctx.Set, error) {
	out := memctx.Set{Name: "Out"}
	for _, s := range in {
		for _, it := range s.Items {
			if bytes.IndexByte(it.Data, '!') >= 0 {
				return nil, fmt.Errorf("%w: %s", errRefMarker, it.Name)
			}
			out.Items = append(out.Items, it)
		}
	}
	return []memctx.Set{out}, nil
}

// refNone returns nothing.
func refNone([]memctx.Set) ([]memctx.Set, error) { return nil, nil }

// refCase is one generated program: its DSL source, and per
// composition (callees first) the input names requests must supply.
type refCase struct {
	src    string
	names  []string
	inputs [][]string
}

// genRefCase writes one to four well-formed compositions. A composition
// may call those generated before it, so the nesting depth reaches the
// composition count, and at most one statement per composition calls
// the communication function.
func genRefCase(rng *rand.Rand, prefix string) refCase {
	var c refCase
	var src strings.Builder
	var outs [][]string
	for ci, nc := 0, 1+rng.Intn(4); ci < nc; ci++ {
		name := fmt.Sprintf("%sC%d", prefix, ci)
		ins := []string{"I0", "I1"}[:1+rng.Intn(2)]
		vals := append([]string(nil), ins...)
		var body strings.Builder
		comm := false
		for si, ns := 0, 1+rng.Intn(4); si < ns; si++ {
			fn, set := []string{"RCat", "RSplit", "RFail", "RNone"}[rng.Intn(4)], "Out"
			params := []string{"p0", "p1"}[:1+rng.Intn(2)]
			var rets []string
			switch k := rng.Intn(5); {
			case k == 0 && !comm:
				fn, set, comm = "RComm", "Response", true
			case k <= 2 && ci > 0:
				callee := ci - 1 - rng.Intn(min(2, ci))
				fn, params = c.names[callee], c.inputs[callee]
				if len(params) > 1 && rng.Intn(10) == 0 {
					params = params[:len(params)-1] // the callee misses an input
				}
				for _, o := range outs[callee] {
					rets = append(rets, fmt.Sprintf("v%d_%s = %s", si, o, o))
				}
			}
			if rets == nil {
				if rng.Intn(10) == 0 {
					set = "Nope" // a set the function never returns
				}
				rets = []string{fmt.Sprintf("v%d = %s", si, set)}
			}
			args := make([]string, len(params))
			for ai, p := range params {
				opt := ""
				if rng.Intn(4) == 0 {
					opt = "optional "
				}
				args[ai] = fmt.Sprintf("%s = %s%s %s", p, opt, []string{"all", "each", "key"}[rng.Intn(3)], vals[rng.Intn(len(vals))])
			}
			fmt.Fprintf(&body, "    %s(%s) => (%s);\n", fn, strings.Join(args, ", "), strings.Join(rets, ", "))
			for _, r := range rets {
				vals = append(vals, strings.Fields(r)[0])
			}
		}
		o := vals[len(vals)-1-rng.Intn(min(2, len(vals))):]
		fmt.Fprintf(&src, "composition %s(%s) => %s {\n%s}\n", name, strings.Join(ins, ", "), strings.Join(o, ", "), body.String())
		c.names, c.inputs, outs = append(c.names, name), append(c.inputs, ins), append(outs, o)
	}
	c.src = src.String()
	return c
}

// genRefInputs draws a request's input sets: one to three items each,
// a few keyed, a few marked to fail, and now and then an empty or a
// missing set.
func genRefInputs(rng *rand.Rand, names []string) map[string][]memctx.Item {
	in := map[string][]memctx.Item{}
	for _, n := range names {
		if rng.Intn(25) == 0 {
			continue
		}
		var items []memctx.Item
		nj := 1 + rng.Intn(3)
		if rng.Intn(6) == 0 {
			nj = 0
		}
		for j := 0; j < nj; j++ {
			items = append(items, memctx.Item{
				Name: fmt.Sprintf("%s%d", n, j),
				Key:  []string{"", "a", "b"}[rng.Intn(3)],
				Data: []byte([]string{"x", "yy", "q|r", "s|tt|u", "z!", "w"}[rng.Intn(6)]),
			})
		}
		in[n] = items
	}
	return in
}

// refExpect is a request together with the reference's answer to it.
type refExpect struct {
	req  Request
	outs map[string][]memctx.Item
	errs []refErr
}

// expect interprets req, reporting false when it outgrows the budget.
func (ri *refInterp) expect(req Request) (e refExpect, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != errRefTooBig {
				panic(r)
			}
			ok = false
		}
	}()
	ri.budget = 400
	e.req = req
	e.outs, e.errs = ri.run(req.Composition, req.Inputs, 0)
	return e, true
}

// check compares one platform answer with the reference's.
func (e refExpect) check(t *testing.T, what string, outs map[string][]memctx.Item, err error) {
	t.Helper()
	if e.errs != nil {
		for _, w := range e.errs {
			if err != nil && errors.Is(err, w.sentinel) && strings.HasPrefix(err.Error(), w.label) {
				return
			}
		}
		t.Fatalf("%s: %s: err = %v, want one of %v", what, e.req.Composition, err, e.errs)
	}
	if err != nil {
		t.Fatalf("%s: %s: unexpected err %v", what, e.req.Composition, err)
	}
	if len(outs) != len(e.outs) {
		t.Fatalf("%s: %s: %d output sets, want %d", what, e.req.Composition, len(outs), len(e.outs))
	}
	for name, want := range e.outs {
		got := outs[name]
		if len(got) != len(want) {
			t.Fatalf("%s: %s: output %s = %v, want %v", what, e.req.Composition, name, got, want)
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Key != want[i].Key || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("%s: %s: output %s = %v, want %v", what, e.req.Composition, name, got, want)
			}
		}
	}
}

// refSeeds is how many generated programs the differential runs.
const refSeeds = 100

// TestReferenceDifferential runs seeded generated compositions through
// the reference and through the platform, as single Invokes, as
// InvokeBatch calls of 1, 3 and 17, and as batches that mix keyed and
// unkeyed requests and that form one chunk-key run, each sent twice so
// the second pass is answered from the dedup table. Outputs must
// match exactly and every error must be one the reference allows.
func TestReferenceDifferential(t *testing.T) {
	const maxDepth = 3
	p := newPlatform(t, Options{ComputeEngines: 2, MaxDepth: maxDepth})
	funcs := map[string]GoFunc{"RCat": refCat, "RSplit": refSplit, "RFail": refFail, "RNone": refNone}
	for name, f := range funcs {
		if err := p.RegisterFunction(ComputeFunc{Name: name, Go: f}); err != nil {
			t.Fatal(err)
		}
	}
	comm := &fakeComm{name: "RComm"}
	if err := p.RegisterComm(comm); err != nil {
		t.Fatal(err)
	}
	funcs["RComm"] = comm.Invoke
	ri := &refInterp{comps: map[string]*graph.Composition{}, funcs: funcs, maxDepth: maxDepth}
	ctx := context.Background()
	for seed := int64(1); seed <= refSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genRefCase(rng, fmt.Sprintf("S%d", seed))
		if _, err := p.RegisterCompositionText(c.src); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, c.src)
		}
		parsed, err := dsl.ParseFile(c.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range parsed {
			ri.comps[pc.Name] = pc
		}
		var exps []refExpect
		for len(exps) < 17 {
			ci := len(c.names) - 1 // mostly the outermost composition
			if rng.Intn(3) == 0 {
				ci = rng.Intn(len(c.names))
			}
			if e, ok := ri.expect(Request{Composition: c.names[ci], Inputs: genRefInputs(rng, c.inputs[ci])}); ok {
				exps = append(exps, e)
			}
		}
		what := func(s string) string { return fmt.Sprintf("seed %d %s\n%s", seed, s, c.src) }
		for _, e := range exps {
			outs, err := p.Invoke(ctx, e.req)
			e.check(t, what("Invoke"), outs, err)
		}
		batch := func(name string, es []refExpect) {
			reqs := make([]Request, len(es))
			for i := range es {
				reqs[i] = es[i].req
			}
			for i, res := range p.InvokeBatch(ctx, reqs) {
				es[i].check(t, what(fmt.Sprintf("%s[%d]", name, i)), res.Outputs, res.Err)
			}
		}
		for _, n := range []int{1, 3, 17} {
			batch(fmt.Sprintf("InvokeBatch/%d", n), exps[:n])
		}
		mixed := append([]refExpect(nil), exps[:9]...)
		for i := range mixed {
			if rng.Intn(2) == 0 {
				mixed[i].req.Key = fmt.Sprintf("S%d/k%d", seed, i)
			}
		}
		batch("mixed", mixed)
		batch("mixed-again", mixed)
		chunk := append([]refExpect(nil), exps[:5]...)
		for i := range chunk {
			chunk[i].req.Key = fmt.Sprintf("S%d#%d", seed, i)
		}
		batch("chunk", chunk)
		batch("chunk-again", chunk)
	}
}
