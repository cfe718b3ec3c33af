package ssb

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// This file is the columnar query engine: selection vectors over the
// fact table, hash joins against dimensions, and grouped aggregation —
// the operator set the paper ports from Apache Arrow Acero (§7.7).

// Selection is a set of selected fact-table row indices.
type Selection []int32

// ScanAll selects every row of the chunk.
func ScanAll(f *LineOrders) Selection { return scanAllInto(nil, f.Len()) }

// scanAllInto selects rows [0, n), reusing sel's capacity.
func scanAllInto(sel Selection, n int) Selection {
	if cap(sel) < n {
		sel = make(Selection, n)
	}
	sel = sel[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// maxPooledRows caps the scratch a pool keeps: a chunk of at most this
// many rows reuses its selection and columns, a larger one leaves them
// to the collector. A served chunk is a slice of the 2^16-row fact
// table clients generate (workloads.MakeSSBChunks), so every one fits.
const maxPooledRows = 1 << 16

// selPool holds the selection vectors Partial filters in place.
var selPool = sync.Pool{New: func() any { return new(Selection) }}

// Filter retains the rows where pred holds.
func Filter(f *LineOrders, sel Selection, pred func(i int32) bool) Selection {
	out := sel[:0:len(sel)]
	for _, i := range sel {
		if pred(i) {
			out = append(out, i)
		}
	}
	return out
}

// DimJoin is a hash join against a dimension keyed by int32: build maps
// dimension key → payload index, probe passes fact rows whose key is
// present.
type DimJoin struct {
	table map[int32]int32
}

// BuildJoin builds the hash side from n dimension rows with the given
// key accessor; keep selects which rows participate (nil keeps all).
func BuildJoin(n int, key func(i int) int32, keep func(i int) bool) *DimJoin {
	j := &DimJoin{table: make(map[int32]int32, n)}
	for i := 0; i < n; i++ {
		if keep == nil || keep(i) {
			j.table[key(i)] = int32(i)
		}
	}
	return j
}

// Probe filters the selection to rows whose foreign key matches the
// build side.
func (j *DimJoin) Probe(sel Selection, fk []int32) Selection {
	out := sel[:0:len(sel)]
	for _, i := range sel {
		if _, ok := j.table[fk[i]]; ok {
			out = append(out, i)
		}
	}
	return out
}

// Lookup returns the dimension row index for a fact row's foreign key.
func (j *DimJoin) Lookup(fk int32) (int32, bool) {
	v, ok := j.table[fk]
	return v, ok
}

// Agg is one aggregation group's accumulator.
type Agg struct {
	Key string
	Sum int64
	N   int64
}

// GroupSum aggregates sum(value) grouped by key over the selection.
type GroupSum struct {
	groups map[string]*Agg
}

// NewGroupSum creates an empty aggregation state.
func NewGroupSum() *GroupSum { return &GroupSum{groups: map[string]*Agg{}} }

// Add accumulates value under key.
func (g *GroupSum) Add(key string, value int64) {
	a, ok := g.groups[key]
	if !ok {
		a = &Agg{Key: key}
		g.groups[key] = a
	}
	a.Sum += value
	a.N++
}

// addKey is Add for a key built in a reusable buffer: the lookup does
// not allocate, and the key is copied into a string only for a new
// group.
func (g *GroupSum) addKey(key []byte, sum, n int64) {
	a, ok := g.groups[string(key)]
	if !ok {
		a = &Agg{Key: string(key)}
		g.groups[a.Key] = a
	}
	a.Sum += sum
	a.N += n
}

// Merge folds another partial aggregation into g — the combine step
// when query chunks execute as parallel Dandelion instances.
func (g *GroupSum) Merge(o *GroupSum) {
	for k, a := range o.groups {
		mine, ok := g.groups[k]
		if !ok {
			g.groups[k] = &Agg{Key: k, Sum: a.Sum, N: a.N}
			continue
		}
		mine.Sum += a.Sum
		mine.N += a.N
	}
}

// Rows returns the groups sorted by key.
func (g *GroupSum) Rows() []Agg {
	out := make([]Agg, 0, len(g.groups))
	for _, a := range g.groups {
		out = append(out, *a)
	}
	slices.SortFunc(out, func(a, b Agg) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Encode serializes the partial aggregation as lines "key\tsum\tn", the
// wire format between partial and merge compute functions, into one
// exactly sized buffer.
func (g *GroupSum) Encode() []byte {
	rows := g.Rows()
	var digits [20]byte
	size := 0
	for _, a := range rows {
		size += len(a.Key) + len(strconv.AppendInt(digits[:0], a.Sum, 10)) +
			len(strconv.AppendInt(digits[:0], a.N, 10)) + 3
	}
	out := make([]byte, 0, size)
	for _, a := range rows {
		out = append(out, a.Key...)
		out = append(out, '\t')
		out = strconv.AppendInt(out, a.Sum, 10)
		out = append(out, '\t')
		out = strconv.AppendInt(out, a.N, 10)
		out = append(out, '\n')
	}
	return out
}

// DecodeGroupSum parses the Encode format.
func DecodeGroupSum(data []byte) (*GroupSum, error) {
	g := NewGroupSum()
	if err := g.MergeEncoded(data); err != nil {
		return nil, err
	}
	return g, nil
}

// MergeEncoded folds an Encode output into g: DecodeGroupSum and Merge
// without the intermediate GroupSum. Every row is "key\tsum\tn\n" (the
// last newline optional) with a key that is not empty and does not
// start with white space, and two base-10 int64 fields with nothing
// else in them. On a malformed row it returns an error and g holds the
// rows before it.
func (g *GroupSum) MergeEncoded(data []byte) error {
	for len(data) > 0 {
		line, rest, _ := bytes.Cut(data, []byte{'\n'})
		data = rest
		key, nums, ok := bytes.Cut(line, []byte{'\t'})
		sumField, nField, ok2 := bytes.Cut(nums, []byte{'\t'})
		if r, _ := utf8.DecodeRune(key); !ok || !ok2 || len(key) == 0 || unicode.IsSpace(r) ||
			bytes.IndexByte(nField, '\t') >= 0 {
			return fmt.Errorf("ssb: malformed partial row %q", line)
		}
		sum, err := strconv.ParseInt(string(sumField), 10, 64)
		if err != nil {
			return fmt.Errorf("ssb: bad sum in %q", line)
		}
		n, err := strconv.ParseInt(string(nField), 10, 64)
		if err != nil {
			return fmt.Errorf("ssb: bad count in %q", line)
		}
		g.addKey(key, sum, n)
	}
	return nil
}
