// Package ssb implements the Star Schema Benchmark (O'Neil et al.) used
// by the elastic query processing experiment in §7.7: a deterministic
// data generator, a small columnar query engine with the operators the
// paper ports from Apache Arrow Acero (filter, projection, hash join,
// group-by aggregation, order by) and the four SSB queries evaluated in
// Figure 9. Workers serve these queries (internal/workloads); the
// Athena cost/latency model Figure 9 compares against belongs to the
// paper's model (internal/model/experiments).
package ssb

import (
	"math/rand"
	"strconv"
)

// Regions, nations, and part metadata follow the SSB specification's
// vocabulary (trimmed lists; cardinalities preserved in spirit).
var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations = map[string][]string{
		"AFRICA":      {"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"},
		"AMERICA":     {"ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"},
		"ASIA":        {"CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"},
		"EUROPE":      {"FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"},
		"MIDDLE EAST": {"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"},
	}
	mfgrs = []string{"MFGR#1", "MFGR#2", "MFGR#3", "MFGR#4", "MFGR#5"}
)

// Date is one row of the date dimension.
type Date struct {
	DateKey int32
	Year    int32
	Month   int32 // yearmonthnum, e.g. 199401
}

// Part is one row of the part dimension.
type Part struct {
	PartKey  int32
	MFGR     string
	Category string
	Brand    string
}

// Supplier is one row of the supplier dimension.
type Supplier struct {
	SuppKey int32
	Region  string
	Nation  string
	City    string
}

// Customer is one row of the customer dimension.
type Customer struct {
	CustKey int32
	Region  string
	Nation  string
	City    string
}

// LineOrders is the fact table in columnar layout.
type LineOrders struct {
	OrderKey      []int32
	CustKey       []int32
	PartKey       []int32
	SuppKey       []int32
	OrderDate     []int32 // date key
	Quantity      []int32
	ExtendedPrice []int32
	Discount      []int32 // percent, 0..10
	Revenue       []int32
	SupplyCost    []int32
}

// Len reports the row count.
func (l *LineOrders) Len() int { return len(l.OrderKey) }

// Slice returns the row range [lo, hi) as a view (shared backing).
func (l *LineOrders) Slice(lo, hi int) *LineOrders {
	return &LineOrders{
		OrderKey: l.OrderKey[lo:hi], CustKey: l.CustKey[lo:hi],
		PartKey: l.PartKey[lo:hi], SuppKey: l.SuppKey[lo:hi],
		OrderDate: l.OrderDate[lo:hi], Quantity: l.Quantity[lo:hi],
		ExtendedPrice: l.ExtendedPrice[lo:hi], Discount: l.Discount[lo:hi],
		Revenue: l.Revenue[lo:hi], SupplyCost: l.SupplyCost[lo:hi],
	}
}

// BytesPerRow is the fact table's on-wire width (10 int32 columns),
// used to translate row counts into scanned bytes for cost models.
const BytesPerRow = 40

// DB is a generated SSB database.
type DB struct {
	Dates     []Date
	Parts     []Part
	Suppliers []Supplier
	Customers []Customer
	Facts     *LineOrders
}

// Generate builds a deterministic SSB database with the given fact-table
// row count (a count below zero yields an empty fact table). Dimension
// sizes scale with the spec's ratios. Every slice is sized up front and
// one rng is drawn in a fixed order, so a seed names the database byte
// for byte.
func Generate(factRows int, seed int64) *DB {
	factRows = max(factRows, 0)
	db, rng := generateDims(factRows, seed)
	nParts, nSupp, nCust := len(db.Parts), len(db.Suppliers), len(db.Customers)
	col := func() []int32 { return make([]int32, factRows) }
	f := &LineOrders{
		OrderKey: col(), CustKey: col(), PartKey: col(), SuppKey: col(),
		OrderDate: col(), Quantity: col(), ExtendedPrice: col(),
		Discount: col(), Revenue: col(), SupplyCost: col(),
	}
	db.Facts = f
	for i := range factRows {
		price := int32(100 + rng.Intn(10000))
		f.OrderKey[i] = int32(i + 1)
		f.CustKey[i] = db.Customers[rng.Intn(nCust)].CustKey
		f.PartKey[i] = db.Parts[rng.Intn(nParts)].PartKey
		f.SuppKey[i] = db.Suppliers[rng.Intn(nSupp)].SuppKey
		f.OrderDate[i] = db.Dates[rng.Intn(len(db.Dates))].DateKey
		f.Quantity[i] = int32(1 + rng.Intn(50))
		f.ExtendedPrice[i] = price
		f.Discount[i] = int32(rng.Intn(11))
		f.Revenue[i] = price * int32(100-rng.Intn(11)) / 100
		f.SupplyCost[i] = price * 6 / 10
	}
	return db
}

// GenerateDims builds only the dimension tables of Generate(factRows,
// seed), byte for byte the same, with an empty fact table: it draws the
// same rng sequence and stops before the fact loop. Query plans join
// against dimensions only, so a worker that receives its fact rows as
// request payload builds this, not the whole database.
func GenerateDims(factRows int, seed int64) *DB {
	db, _ := generateDims(max(factRows, 0), seed)
	return db
}

// generateDims fills the dimension tables sized for factRows and
// returns the rng positioned where the fact loop starts drawing.
func generateDims(factRows int, seed int64) (*DB, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	db := &DB{
		Dates:     make([]Date, 0, 7*12*28),
		Parts:     make([]Part, max(factRows/50, 20)),
		Suppliers: make([]Supplier, max(factRows/100, 10)),
		Customers: make([]Customer, max(factRows/30, 10)),
		Facts:     &LineOrders{},
	}

	// Date dimension: 7 years of days, 1992-1998.
	for year := int32(1992); year <= 1998; year++ {
		for month := int32(1); month <= 12; month++ {
			for day := int32(1); day <= 28; day++ {
				db.Dates = append(db.Dates, Date{
					DateKey: year*10000 + month*100 + day,
					Year:    year,
					Month:   year*100 + month,
				})
			}
		}
	}

	for i := range db.Parts {
		m := mfgrs[rng.Intn(len(mfgrs))]
		cat := m + strconv.Itoa(1+rng.Intn(5))
		db.Parts[i] = Part{
			PartKey:  int32(i + 1),
			MFGR:     m,
			Category: cat,
			Brand:    cat + strconv.Itoa(1+rng.Intn(40)),
		}
	}

	for i := range db.Suppliers {
		r, n, city := place(rng)
		db.Suppliers[i] = Supplier{SuppKey: int32(i + 1), Region: r, Nation: n, City: city}
	}

	for i := range db.Customers {
		r, n, city := place(rng)
		db.Customers[i] = Customer{CustKey: int32(i + 1), Region: r, Nation: n, City: city}
	}
	return db, rng
}

// place draws a supplier's or customer's region, nation and city, the
// city named by the nation's first five letters and one digit.
func place(rng *rand.Rand) (region, nation, city string) {
	region = regions[rng.Intn(len(regions))]
	nation = nations[region][rng.Intn(len(nations[region]))]
	return region, nation, nation[:min(5, len(nation))] + strconv.Itoa(rng.Intn(10))
}
