// Package workloads registers the paper's data-heavy evaluation
// applications as served compositions: the Star Schema Benchmark
// analytics queries (§7.7, internal/ssb), the QOI image-transcoding
// pipeline (§7.6, internal/qoiimg), and byte-heavy storage scans. The
// examples/ directory runs these same applications as self-contained
// programs against local mock services; this package instead puts them
// behind a worker node's serving plane — payloads arrive through the
// HTTP frontend and wire codec, flow through admission and DRR
// dispatch, and leave the same way — which is what the large-payload
// data-plane work is measured against.
//
// Suites are selected by name ("ssb", "image", "storage", or "all"),
// typically via cmd/dandelion's -workloads flag. Every composition
// registered here is described in docs/WORKLOADS.md (enforced by
// docs-check Rule 8). The MakeSSB*/Image*/Storage* helpers build the
// matching deterministic inputs so benchmarks, e2e tests, and remote
// clients agree on payload bytes without shipping a dataset.
package workloads

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"dandelion/internal/core"
	"dandelion/internal/memctx"
	"dandelion/internal/qoiimg"
	"dandelion/internal/ssb"
)

// Served workload composition names, one constant per composition a
// suite registers. docs-check Rule 8 requires every quoted name below
// to be documented in docs/WORKLOADS.md.
const (
	WorkloadSSBQuery      = "SSBQuery"
	WorkloadImagePipeline = "ImagePipeline"
	WorkloadStorageScan   = "StorageScan"
	WorkloadStorageFetch  = "StorageFetch"
)

// Registrar is the slice of the platform the suites need; both
// *core.Platform and the public *dandelion.Platform satisfy it.
type Registrar interface {
	RegisterFunction(core.ComputeFunc) error
	RegisterCompositionText(src string) ([]string, error)
}

// Suites lists the registrable suite names in registration order.
func Suites() []string { return []string{"ssb", "image", "storage"} }

// Register installs the requested workload suites on p. spec is a
// comma-separated subset of Suites(), or "all"; names are trimmed and
// deduplicated, so "ssb, ssb" registers once. It returns the suite
// names actually registered, in registration order.
func Register(p Registrar, spec string) ([]string, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "":
		case "all":
			for _, s := range Suites() {
				want[s] = true
			}
		case "ssb", "image", "storage":
			want[name] = true
		default:
			return nil, fmt.Errorf("workloads: unknown suite %q (want one of %s, or all)",
				name, strings.Join(Suites(), "/"))
		}
	}
	var registered []string
	for _, s := range Suites() {
		if !want[s] {
			continue
		}
		var err error
		switch s {
		case "ssb":
			err = registerSSB(p)
		case "image":
			err = registerImage(p)
		case "storage":
			err = registerStorage(p)
		}
		if err != nil {
			return nil, fmt.Errorf("workloads: suite %s: %w", s, err)
		}
		registered = append(registered, s)
	}
	return registered, nil
}

// setNamed finds one of a function's input sets by parameter name.
func setNamed(in []memctx.Set, name string) (memctx.Set, error) {
	for _, s := range in {
		if s.Name == name {
			return s, nil
		}
	}
	return memctx.Set{}, fmt.Errorf("workloads: input set %q missing", name)
}

// --- SSB analytics suite -------------------------------------------------

// The SSB suite serves all four query flights over a deterministic
// database, while fact-table chunks ship through the serving plane as
// request payloads — the shared-nothing scan shape whose
// bytes-per-invocation dwarfs every microbench payload. The worker
// joins chunks against dimension tables it generates once per process
// from a fixed seed, and builds only those (ssb.GenerateDims): the
// served path never reads a fact table. Clients build matching chunks
// with MakeSSBChunks, which generates the whole database on first use;
// any prefix of the fact table is valid input, so request size is
// tunable without touching the registered plans.
const (
	ssbSeed = 42
	// ssbRows bounds MakeSSBChunks: the full fact table is ~2.6 MiB
	// encoded (40 B/row), enough for several 1 MiB-class chunks. It
	// also sizes the dimension tables.
	ssbRows = 1 << 16
)

// ssbData is the whole database, for clients and reference answers;
// ssbDims its dimension tables alone, for the registered plans.
var (
	ssbData = sync.OnceValue(func() *ssb.DB { return ssb.Generate(ssbRows, ssbSeed) })
	ssbDims = sync.OnceValue(func() *ssb.DB { return ssb.GenerateDims(ssbRows, ssbSeed) })
)

func registerSSB(p Registrar) error {
	plans := make(map[string]*ssb.Plan, len(ssb.Queries()))
	for _, q := range ssb.Queries() {
		plan, err := ssb.NewPlan(ssbDims(), q)
		if err != nil {
			return err
		}
		plans[string(q)] = plan
	}
	err := p.RegisterFunction(core.ComputeFunc{Name: "SSBPartial", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		qs, err := setNamed(in, "Q")
		if err != nil {
			return nil, err
		}
		if len(qs.Items) == 0 {
			return nil, fmt.Errorf("workloads: empty Query set")
		}
		plan := plans[strings.TrimSpace(string(qs.Items[0].Data))]
		if plan == nil {
			return nil, fmt.Errorf("workloads: unknown SSB query %q", qs.Items[0].Data)
		}
		chunks, err := setNamed(in, "Chunk")
		if err != nil {
			return nil, err
		}
		out := memctx.Set{Name: "Out"}
		for _, it := range chunks.Items {
			partial, err := plan.PartialChunk(it.Data)
			if err != nil {
				return nil, err
			}
			out.Items = append(out.Items, memctx.Item{Name: it.Name, Data: partial})
		}
		return []memctx.Set{out}, nil
	}})
	if err != nil {
		return err
	}
	err = p.RegisterFunction(core.ComputeFunc{Name: "SSBMerge", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		merged := ssb.NewGroupSum()
		for _, s := range in {
			for _, it := range s.Items {
				if err := merged.MergeEncoded(it.Data); err != nil {
					return nil, err
				}
			}
		}
		return []memctx.Set{{Name: "Out", Items: []memctx.Item{
			{Name: "result", Data: merged.Encode()},
		}}}, nil
	}})
	if err != nil {
		return err
	}
	_, err = p.RegisterCompositionText(`
composition SSBQuery(Query, Chunks) => Result {
    SSBPartial(Q = all Query, Chunk = each Chunks) => (partials = Out);
    SSBMerge(Partials = all partials) => (Result = Out);
}`)
	return err
}

// MakeSSBQuery renders the Query input item selecting one of
// ssb.Queries() (e.g. ssb.Q11).
func MakeSSBQuery(q ssb.QueryID) memctx.Item {
	return memctx.Item{Name: "query", Data: []byte(q)}
}

// MakeSSBChunks encodes the first rows fact rows (at most the
// deterministic table's full size) split into nChunks Chunks items.
func MakeSSBChunks(rows, nChunks int) ([]memctx.Item, error) {
	facts := ssbData().Facts
	if rows < 1 || rows > facts.Len() {
		return nil, fmt.Errorf("workloads: rows %d out of range [1, %d]", rows, facts.Len())
	}
	if nChunks < 1 || nChunks > rows {
		return nil, fmt.Errorf("workloads: nChunks %d out of range [1, %d]", nChunks, rows)
	}
	items := make([]memctx.Item, 0, nChunks)
	for c := 0; c < nChunks; c++ {
		lo, hi := c*rows/nChunks, (c+1)*rows/nChunks
		items = append(items, memctx.Item{
			Name: fmt.Sprintf("chunk%03d", c),
			Data: ssb.EncodeChunk(facts.Slice(lo, hi)),
		})
	}
	return items, nil
}

// SSBExpect computes the reference answer for MakeSSBChunks(rows, ·)
// under query q, independent of chunking (partial aggregation merges
// associatively).
func SSBExpect(q ssb.QueryID, rows int) (*ssb.GroupSum, error) {
	plan, err := ssb.NewPlan(ssbData(), q)
	if err != nil {
		return nil, err
	}
	return plan.Partial(ssbData().Facts.Slice(0, rows)), nil
}

// --- QOI image suite -----------------------------------------------------

// The image suite serves the §7.6 transcode step: QOI images arrive as
// request payload, one sandboxed instance per image converts QOI→PNG,
// and the PNGs return as response payload — symmetric megabyte-class
// traffic in both wire directions.
func registerImage(p Registrar) error {
	err := p.RegisterFunction(core.ComputeFunc{Name: "ImageTranscode", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		images, err := setNamed(in, "Image")
		if err != nil {
			return nil, err
		}
		out := memctx.Set{Name: "Out"}
		for _, it := range images.Items {
			png, err := qoiimg.ToPNG(it.Data)
			if err != nil {
				return nil, fmt.Errorf("workloads: %s: %w", it.Name, err)
			}
			out.Items = append(out.Items, memctx.Item{Name: it.Name + ".png", Data: png})
		}
		return []memctx.Set{out}, nil
	}})
	if err != nil {
		return err
	}
	_, err = p.RegisterCompositionText(`
composition ImagePipeline(Images) => PNGs {
    ImageTranscode(Image = each Images) => (PNGs = Out);
}`)
	return err
}

// MakeImages renders n QOI-encoded deterministic test images of
// roughly w×h pixels (widths vary slightly per image so instances do
// unequal work, like a real batch).
func MakeImages(n, w, h int) []memctx.Item {
	items := make([]memctx.Item, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, memctx.Item{
			Name: fmt.Sprintf("img%03d.qoi", i),
			Data: qoiimg.Encode(qoiimg.TestImage(w+8*(i%4), h)),
		})
	}
	return items
}

// --- Storage suite -------------------------------------------------------

// The storage suite serves the two halves of an object-scan workload
// split by wire direction: StorageScan ships large blobs in and
// returns a small digest (ingest-heavy — the request path's oversize
// reads and byte-aware admission carry the load), StorageFetch ships
// small size descriptors in and returns generated blobs (egress-heavy
// — the response path's vectored writes carry it).
func registerStorage(p Registrar) error {
	err := p.RegisterFunction(core.ComputeFunc{Name: "StoreScan", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		blobs, err := setNamed(in, "Blob")
		if err != nil {
			return nil, err
		}
		out := memctx.Set{Name: "Out"}
		for _, it := range blobs.Items {
			var records, bytes int
			var hash uint64 = fnvOffset
			for _, b := range it.Data {
				hash = (hash ^ uint64(b)) * fnvPrime
				bytes++
				if b == '\n' {
					records++
				}
			}
			out.Items = append(out.Items, memctx.Item{
				Name: it.Name,
				Data: []byte(fmt.Sprintf(digestFormat, 1, bytes, records, hash)),
			})
		}
		return []memctx.Set{out}, nil
	}})
	if err != nil {
		return err
	}
	err = p.RegisterFunction(core.ComputeFunc{Name: "StoreSum", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		var total [len(digestCounts)]int
		var hash uint64
		for _, s := range in {
			for _, it := range s.Items {
				counts, h, ok := parseDigest(string(it.Data))
				if !ok {
					return nil, fmt.Errorf("workloads: bad scan digest %q", it.Data)
				}
				for i, c := range counts {
					if total[i] > math.MaxInt-c {
						return nil, fmt.Errorf("workloads: scan digest %q overflows the %s total", it.Data, digestCounts[i])
					}
					total[i] += c
				}
				hash ^= h // order-independent combine: blobs may arrive in any order
			}
		}
		return []memctx.Set{{Name: "Out", Items: []memctx.Item{{
			Name: "summary",
			Data: []byte(fmt.Sprintf(digestFormat, total[0], total[1], total[2], hash)),
		}}}}, nil
	}})
	if err != nil {
		return err
	}
	err = p.RegisterFunction(core.ComputeFunc{Name: "StoreGen", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		sizes, err := setNamed(in, "Size")
		if err != nil {
			return nil, err
		}
		out := memctx.Set{Name: "Out"}
		for _, it := range sizes.Items {
			n, err := strconv.Atoi(string(it.Data))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("workloads: bad blob size %q", it.Data)
			}
			if n > MaxBlobBytes {
				return nil, fmt.Errorf("workloads: blob size %d above MaxBlobBytes (%d)", n, MaxBlobBytes)
			}
			// The blob lives in a buffer the request's lease owns
			// when it has one (memctx.Alloc), so a steady stream of
			// fetches recycles its response memory.
			blob := memctx.Alloc(sizes, n)
			makeBlobInto(blob, SeedFromName(it.Name))
			out.Items = append(out.Items, memctx.Item{Name: it.Name, Data: blob})
		}
		return []memctx.Set{out}, nil
	}})
	if err != nil {
		return err
	}
	_, err = p.RegisterCompositionText(`
composition StorageScan(Blobs) => Result {
    StoreScan(Blob = each Blobs) => (digests = Out);
    StoreSum(Digests = all digests) => (Result = Out);
}
composition StorageFetch(Sizes) => Blobs {
    StoreGen(Size = each Sizes) => (Blobs = Out);
}`)
	return err
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// digestFormat is the one line StoreScan writes per blob and StoreSum
// writes for their total. parseDigest reads exactly this grammar.
const digestFormat = "blobs=%d bytes=%d records=%d hash=%016x"

// digestCounts names a digest's count fields, in order.
var digestCounts = [...]string{"blobs", "bytes", "records"}

// parseDigest reads one digest as digestFormat renders it: the four
// fields in order, separated by single spaces, the counts as base-10
// numbers with no sign and no leading zero, and the hash as exactly 16
// lowercase hex digits. Anything else — a trailing byte included — is
// refused, so every accepted digest renders back to the same bytes.
func parseDigest(d string) (counts [len(digestCounts)]int, hash uint64, ok bool) {
	fields := strings.Split(d, " ")
	if len(fields) != len(digestCounts)+1 {
		return counts, 0, false
	}
	for i, name := range digestCounts {
		v, found := strings.CutPrefix(fields[i], name+"=")
		if !found || len(v) > 1 && v[0] == '0' {
			return counts, 0, false
		}
		n, err := strconv.ParseUint(v, 10, strconv.IntSize-1)
		if err != nil {
			return counts, 0, false
		}
		counts[i] = int(n)
	}
	h, found := strings.CutPrefix(fields[len(digestCounts)], "hash=")
	if !found || len(h) != 16 || h != strings.ToLower(h) {
		return counts, 0, false
	}
	hash, err := strconv.ParseUint(h, 16, 64)
	return counts, hash, err == nil
}

// SeedFromName derives a blob-generator seed from an item name (FNV-1a),
// the convention StoreGen uses, so clients can reproduce fetched blobs.
func SeedFromName(name string) uint64 {
	var h uint64 = fnvOffset
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return h
}

// MaxBlobBytes bounds one blob StoreGen generates: 64 MiB, the
// frontend's default request body cap. A Sizes item is a length read
// from the request, so it is checked against this before it becomes an
// allocation.
const MaxBlobBytes = 64 << 20

// MakeBlob renders n deterministic pseudo-record bytes from seed:
// xorshift-filled lines of 64 bytes, so StoreScan sees a plausible
// record structure and the payload stays incompressible-ish.
//
// The bytes are defined by one sequential recurrence: x starts at seed
// (fnvOffset for 0); byte i is '\n' when i%64 == 63, and otherwise x
// takes one xorshift64 step and byte i is ' ' + x%94. Clients rebuild
// fetched blobs with MakeBlob, so the output must never drift from it;
// internal/workloads/reference_test.go holds MakeBlob, and each of its
// fill paths, to that loop.
//
// Run as written, each step waits on the one before it, so the loop
// runs at the latency of one xorshift step per byte. MakeBlob splits the
// full rows into contiguous lanes, seeds each lane by jumping the
// previous lane's seed ahead over its rows (see jump), and fills one row
// of every lane at a time: independent chains the CPU overlaps. On amd64
// with AVX2 there are 16 lanes, stepped four to a vector register
// (makeblob_amd64.s); elsewhere fillLanes4 runs 4 lanes in Go. The
// leftover rows and the partial last row continue the last lane's chain.
func MakeBlob(n int, seed uint64) []byte {
	b := make([]byte, n)
	makeBlobInto(b, seed)
	return b
}

// makeBlobInto writes MakeBlob(len(b), seed)'s bytes into b, so StoreGen
// can fill a buffer it leased rather than one it made.
func makeBlobInto(b []byte, seed uint64) {
	if seed == 0 {
		seed = fnvOffset
	}
	if hasAVX2 {
		done, x := fillLanes16(b, seed)
		fillTail(b[done:], x)
		return
	}
	fillLanes4(b, seed)
}

// fillLanes4 writes MakeBlob's bytes for a nonzero seed into b with
// blobLanes chains in Go.
func fillLanes4(b []byte, seed uint64) {
	n := len(b)
	per := n / blobRow / blobLanes // rows in each lane
	laneBytes := per * blobRow
	x0 := seed
	x1 := jump(x0, per)
	x2 := jump(x1, per)
	x3 := jump(x2, per)
	l1, l2, l3 := b[laneBytes:], b[2*laneBytes:], b[3*laneBytes:]
	for off := 0; off < laneBytes; off += blobRow {
		r0 := (*[blobRow]byte)(b[off:])
		r1 := (*[blobRow]byte)(l1[off:])
		r2 := (*[blobRow]byte)(l2[off:])
		r3 := (*[blobRow]byte)(l3[off:])
		for i := 0; i < blobRow-1; i++ {
			x0, x1, x2, x3 = xorshift(x0), xorshift(x1), xorshift(x2), xorshift(x3)
			r0[i] = ' ' + byte(x0%94)
			r1[i] = ' ' + byte(x1%94)
			r2[i] = ' ' + byte(x2%94)
			r3[i] = ' ' + byte(x3%94)
		}
		r0[blobRow-1], r1[blobRow-1], r2[blobRow-1], r3[blobRow-1] = '\n', '\n', '\n', '\n'
	}
	fillTail(b[blobLanes*laneBytes:], x3)
}

// fillTail continues the chain whose state is x over b, which starts
// on a row boundary, one step per byte.
func fillTail(b []byte, x uint64) {
	for i := range b {
		if (i+1)%blobRow == 0 {
			b[i] = '\n'
			continue
		}
		x = xorshift(x)
		b[i] = ' ' + byte(x%94) // printable, never '\n'
	}
}

const (
	blobRow   = 64 // bytes per MakeBlob row: 63 xorshift bytes and a '\n'
	blobLanes = 4  // fillLanes4's independent chains, x0..x3 in its loop
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// gf2Matrix is a linear map on 64-bit vectors over GF(2), stored as
// the images of the 64 unit vectors: column i is the map applied to
// 1<<i.
type gf2Matrix [64]uint64

func (m *gf2Matrix) apply(x uint64) uint64 {
	var y uint64
	for i := range m {
		y ^= m[i] & -(x >> i & 1)
	}
	return y
}

// rowJumps[j] advances the xorshift state by the steps of 2^j rows,
// (blobRow-1)·2^j. Every n/blobRow of an int n is below 2^57, so 57
// levels jump over any lane.
var (
	rowJumpsOnce sync.Once
	rowJumps     [57]gf2Matrix
)

// jump returns the xorshift state rows rows after x. xorshift64 is
// linear over GF(2), so one row's blobRow-1 steps are one matrix, and
// squaring it doubles the rows it covers; jump applies the levels of
// rows' set bits.
func jump(x uint64, rows int) uint64 {
	if rows == 0 {
		return x
	}
	rowJumpsOnce.Do(func() {
		for i := range rowJumps[0] {
			v := uint64(1) << i
			for range blobRow - 1 {
				v = xorshift(v)
			}
			rowJumps[0][i] = v
		}
		for j := 1; j < len(rowJumps); j++ {
			for i, col := range rowJumps[j-1] {
				rowJumps[j][i] = rowJumps[j-1].apply(col)
			}
		}
	})
	for j := 0; rows != 0; j, rows = j+1, rows>>1 {
		if rows&1 != 0 {
			x = rowJumps[j].apply(x)
		}
	}
	return x
}

// MakeScanBlobs renders nBlobs Blobs items of blobSize bytes each for
// StorageScan, deterministic in the item name.
func MakeScanBlobs(nBlobs, blobSize int) []memctx.Item {
	items := make([]memctx.Item, 0, nBlobs)
	for i := 0; i < nBlobs; i++ {
		name := fmt.Sprintf("blob%03d", i)
		items = append(items, memctx.Item{Name: name, Data: MakeBlob(blobSize, SeedFromName(name))})
	}
	return items
}

// MakeFetchSizes renders nBlobs Sizes items each requesting a
// blobSize-byte generated blob from StorageFetch.
func MakeFetchSizes(nBlobs, blobSize int) []memctx.Item {
	items := make([]memctx.Item, 0, nBlobs)
	for i := 0; i < nBlobs; i++ {
		items = append(items, memctx.Item{
			Name: fmt.Sprintf("blob%03d", i),
			Data: []byte(fmt.Sprintf("%d", blobSize)),
		})
	}
	return items
}
