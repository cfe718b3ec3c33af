package ssb

import (
	"fmt"
	"strconv"
	"sync"
)

// The four SSB queries of Figure 9. Each query is expressed as a
// partial-aggregation function over a fact-table chunk plus the shared
// merge step, so the same code runs single-node (RunQuery) and as
// parallel Dandelion compute-function instances (QueryPartial chunks →
// GroupSum.Merge).

// QueryID names one of the evaluated queries.
type QueryID string

// The evaluated queries.
const (
	Q11 QueryID = "Q1.1"
	Q21 QueryID = "Q2.1"
	Q31 QueryID = "Q3.1"
	Q41 QueryID = "Q4.1"
)

// Queries lists the evaluated query IDs in figure order.
func Queries() []QueryID { return []QueryID{Q11, Q21, Q31, Q41} }

// Plan holds the join structures built once per query over the
// dimension tables; fact chunks are then processed independently.
type Plan struct {
	ID QueryID
	db *DB

	dateJoin *DimJoin
	partJoin *DimJoin
	suppJoin *DimJoin
	custJoin *DimJoin
}

// NewPlan builds the dimension hash tables for the query.
func NewPlan(db *DB, id QueryID) (*Plan, error) {
	p := &Plan{ID: id, db: db}
	dateKey := func(i int) int32 { return db.Dates[i].DateKey }
	partKey := func(i int) int32 { return db.Parts[i].PartKey }
	suppKey := func(i int) int32 { return db.Suppliers[i].SuppKey }
	custKey := func(i int) int32 { return db.Customers[i].CustKey }
	switch id {
	case Q11:
		p.dateJoin = BuildJoin(len(db.Dates), dateKey, func(i int) bool {
			return db.Dates[i].Year == 1993
		})
	case Q21:
		p.dateJoin = BuildJoin(len(db.Dates), dateKey, nil)
		p.partJoin = BuildJoin(len(db.Parts), partKey, func(i int) bool {
			return db.Parts[i].Category == "MFGR#12"
		})
		p.suppJoin = BuildJoin(len(db.Suppliers), suppKey, func(i int) bool {
			return db.Suppliers[i].Region == "AMERICA"
		})
	case Q31:
		p.dateJoin = BuildJoin(len(db.Dates), dateKey, func(i int) bool {
			y := db.Dates[i].Year
			return y >= 1992 && y <= 1997
		})
		p.suppJoin = BuildJoin(len(db.Suppliers), suppKey, func(i int) bool {
			return db.Suppliers[i].Region == "ASIA"
		})
		p.custJoin = BuildJoin(len(db.Customers), custKey, func(i int) bool {
			return db.Customers[i].Region == "ASIA"
		})
	case Q41:
		p.dateJoin = BuildJoin(len(db.Dates), dateKey, nil)
		p.partJoin = BuildJoin(len(db.Parts), partKey, func(i int) bool {
			m := db.Parts[i].MFGR
			return m == "MFGR#1" || m == "MFGR#2"
		})
		p.suppJoin = BuildJoin(len(db.Suppliers), suppKey, func(i int) bool {
			return db.Suppliers[i].Region == "AMERICA"
		})
		p.custJoin = BuildJoin(len(db.Customers), custKey, func(i int) bool {
			return db.Customers[i].Region == "AMERICA"
		})
	default:
		return nil, fmt.Errorf("ssb: unknown query %q", id)
	}
	return p, nil
}

// Partial processes one fact chunk, returning its partial aggregation.
// The selection it filters in place comes from a pool and goes back
// before it returns; the GroupSum references neither it nor the chunk.
func (p *Plan) Partial(chunk *LineOrders) *GroupSum {
	pooled := selPool.Get().(*Selection)
	sel := scanAllInto(*pooled, chunk.Len())
	*pooled = sel[:0]
	defer func() {
		if cap(*pooled) <= maxPooledRows {
			selPool.Put(pooled)
		}
	}()

	db := p.db
	g := NewGroupSum()
	// Group keys are built here, on the stack; addKey allocates a key
	// string only for a group the chunk has not seen yet.
	var buf [64]byte
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
			key := strconv.AppendInt(buf[:0], int64(db.Dates[di].Year), 10)
			key = append(append(key, '|'), db.Parts[pi].Brand...)
			g.addKey(key, int64(chunk.Revenue[i]), 1)
		}
	case Q31:
		sel = p.custJoin.Probe(sel, chunk.CustKey)
		sel = p.suppJoin.Probe(sel, chunk.SuppKey)
		sel = p.dateJoin.Probe(sel, chunk.OrderDate)
		for _, i := range sel {
			ci, _ := p.custJoin.Lookup(chunk.CustKey[i])
			si, _ := p.suppJoin.Lookup(chunk.SuppKey[i])
			di, _ := p.dateJoin.Lookup(chunk.OrderDate[i])
			key := append(append(buf[:0], db.Customers[ci].Nation...), '|')
			key = append(append(key, db.Suppliers[si].Nation...), '|')
			key = strconv.AppendInt(key, int64(db.Dates[di].Year), 10)
			g.addKey(key, int64(chunk.Revenue[i]), 1)
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
			key := strconv.AppendInt(buf[:0], int64(db.Dates[di].Year), 10)
			key = append(append(key, '|'), db.Customers[ci].Nation...)
			g.addKey(key, int64(chunk.Revenue[i])-int64(chunk.SupplyCost[i]), 1)
		}
	}
	return g
}

// chunkScratch is the decode target PartialChunk reuses across calls.
type chunkScratch struct {
	rows LineOrders
	cols []int32
}

var chunkPool = sync.Pool{New: func() any { return new(chunkScratch) }}

// PartialChunk decodes an encoded chunk and returns the encoded partial
// aggregation of the query over it — Partial(DecodeChunk(data)).Encode()
// byte for byte — decoding into columns pooled for the next call.
func (p *Plan) PartialChunk(data []byte) ([]byte, error) {
	s := chunkPool.Get().(*chunkScratch)
	defer func() {
		if cap(s.cols) <= 10*maxPooledRows {
			chunkPool.Put(s)
		}
	}()
	var err error
	if s.cols, err = s.rows.decode(data, s.cols); err != nil {
		return nil, err
	}
	return p.Partial(&s.rows).Encode(), nil
}

// RunQuery executes the query over the whole fact table in nChunks
// chunks (sequentially; callers parallelize by running Partial per
// chunk themselves) and merges the partials.
func RunQuery(db *DB, id QueryID, nChunks int) (*GroupSum, error) {
	plan, err := NewPlan(db, id)
	if err != nil {
		return nil, err
	}
	if nChunks <= 0 {
		nChunks = 1
	}
	total := db.Facts.Len()
	out := NewGroupSum()
	for c := 0; c < nChunks; c++ {
		lo := c * total / nChunks
		hi := (c + 1) * total / nChunks
		if lo >= hi {
			continue
		}
		out.Merge(plan.Partial(db.Facts.Slice(lo, hi)))
	}
	return out, nil
}
