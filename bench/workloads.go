package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math/rand"
	"strconv"

	"dandelion/internal/core"
	"dandelion/internal/dvm"
	"dandelion/internal/isolation"
	"dandelion/internal/memctx"
	"dandelion/internal/qoiimg"
	"dandelion/internal/ssb"
	"dandelion/internal/wire"
	"dandelion/internal/workloads"
)

const (
	echoBytes   = 64        // rpc-small payload
	echoMem     = 4 << 10   // X-Memory-Bytes declared for the echo function: one page holds it
	blobBytes   = 256 << 10 // batch-ingest / batch-egress blob size
	batchSize   = 4         // invocations per batch request
	poolSize    = 16        // distinct pre-generated payloads per workload
	imageSide   = 32        // two-tenant image edge, pixels
	imagePool   = 32        // distinct images
	resendShare = 0.05      // share of interactive requests that re-send a recent key
	resendRing  = 64        // how far back a re-sent key may lie
	ssbRows     = 1 << 15   // fact rows per SSB invocation ...
	ssbChunks   = 4         // ... split into this many chunks of 2^13 rows
)

// Framings a request can travel in.
const (
	framingRaw    = "raw"    // POST /invoke/: body is the payload, no codec
	framingBinary = "binary" // application/x-dandelion-frame
	framingJSON   = "json"   // application/json, base64 payloads
)

// goFunc is a served function body: core.ComputeFunc's Go field.
type goFunc = func([]memctx.Set) ([]memctx.Set, error)

// stage is one function instance of an invocation: the body, the sets
// that enter its memory context and the sets that leave it.
type stage struct {
	fn      goFunc
	in, out []memctx.Set
}

// workload is one traffic mix. Connection 0 is the one the per-layer
// breakdown describes; on two-tenant it is the interactive tenant.
type workload struct {
	name    string
	why     string
	journal bool   // the server runs with -journal
	framing string // framing of connection 0
	tenant  string // tenant of connection 0 ("" = default)
	keyed   bool   // connection 0 sends idempotency keys
	// register installs what the workload needs over HTTP before its
	// first request (nil: the -workloads suites suffice).
	register func(base string) error
	// sources builds one source per connection from the seed.
	sources func(seed int64) ([]source, error)
	// model returns the stages of one invocation of connection 0, and of
	// the last connection when that differs.
	model func(seed int64) (fg, bg []stage, err error)
}

var allWorkloads = []workload{
	{
		name:    "rpc-small",
		why:     "64 B echo in a fresh sandboxed dvm run per request: per-request platform cost is all of the work, payload bytes none of it",
		framing: framingRaw,
		register: func(base string) error {
			err := post(base+"/register/function/BenchEcho",
				map[string]string{"X-Memory-Bytes": strconv.Itoa(echoMem), "X-Output-Sets": "Copy"},
				dvm.EchoProgram().Encode())
			if err != nil {
				return err
			}
			return post(base+"/register/composition", nil,
				[]byte("composition BenchEchoOnce(In) => Result { BenchEcho(x = all In) => (Result = Copy); }"))
		},
		sources: func(seed int64) ([]source, error) {
			return []source{newEchoSource(seed), newEchoSource(seed + 1)}, nil
		},
		model: func(seed int64) ([]stage, []stage, error) {
			st, err := echoStage(echoMem)
			return []stage{st}, nil, err
		},
	},
	{
		name:    "batch-ingest",
		why:     "binary batches of 4 x 256 KiB blobs in, one summary line out: wire decode, slab ingest, byte-aware admission and copy-in carry the load",
		framing: framingBinary,
		sources: func(seed int64) ([]source, error) {
			return []source{newScanSource(seed, 0), newScanSource(seed, 1)}, nil
		},
		model: func(seed int64) ([]stage, []stage, error) {
			st, err := runStages(newScanSource(seed, 0).pool[0].inputs, "StoreScan", "StoreSum")
			return st, nil, err
		},
	},
	{
		name:    "batch-egress",
		why:     "binary batches of 4 x 256 KiB blobs generated from a few bytes in: the same wire/memctx/core layers in the response direction",
		framing: framingBinary,
		sources: func(seed int64) ([]source, error) {
			return []source{newFetchSource(seed, 0), newFetchSource(seed, 1)}, nil
		},
		model: func(seed int64) ([]stage, []stage, error) {
			st, err := runStages(newFetchSource(seed, 0).pool[0].inputs, "StoreGen")
			return st, nil, err
		},
	},
	{
		name:    "two-tenant",
		why:     "a keyed JSON image tenant beside a binary SSB analytics tenant on a journaled node: real compute dominates; DRR, engine queueing, journal and the JSON codec set the foreground tail",
		journal: true,
		framing: framingJSON,
		tenant:  "interactive",
		keyed:   true,
		sources: func(seed int64) ([]source, error) {
			bg, err := newSSBSource(seed)
			if err != nil {
				return nil, err
			}
			return []source{newImageSource(seed), bg}, nil
		},
		model: func(seed int64) ([]stage, []stage, error) {
			img := newImageSource(seed).pool[0]
			fg, err := runStages(map[string][]memctx.Item{"Images": {{Name: img.name, Data: img.qoi}}}, "ImageTranscode")
			if err != nil {
				return nil, nil, err
			}
			src, err := newSSBSource(seed)
			if err != nil {
				return nil, nil, err
			}
			bg, err := runStages(src.pool[0].inputs, "SSBPartial", "SSBMerge")
			return fg, bg, err
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- rpc-small -------------------------------------------------------------

// echoSource sends a fresh seeded 64-byte payload per request and
// requires the same bytes back.
type echoSource struct {
	rng     *rand.Rand
	payload [echoBytes]byte
}

func newEchoSource(seed int64) *echoSource {
	return &echoSource{rng: rand.New(rand.NewSource(seed))}
}

func (s *echoSource) next(body *bytes.Buffer) call {
	for i := 0; i < echoBytes; i += 8 {
		binary.LittleEndian.PutUint64(s.payload[i:], s.rng.Uint64())
	}
	body.Write(s.payload[:])
	return call{
		path:        "/invoke/BenchEchoOnce?input=In",
		header:      [][2]string{{"Content-Type", "application/octet-stream"}},
		invocations: 1, bytesIn: echoBytes, respBytes: echoBytes,
	}
}

func (s *echoSource) check(status int, resp []byte) (int, error) {
	if status != 200 {
		return 0, fmt.Errorf("status %d: %s", status, clip(resp))
	}
	if !bytes.Equal(resp, s.payload[:]) {
		return 0, fmt.Errorf("echo mismatch: got %d bytes", len(resp))
	}
	return len(resp), nil
}

// echoStage is the echo function as the server runs it: the dvm
// program under the default (cheri) backend with memBytes declared.
func echoStage(memBytes int) (stage, error) {
	backend, err := isolation.New("cheri")
	if err != nil {
		return stage{}, err
	}
	prog := dvm.EchoProgram()
	st := stage{
		fn: func(in []memctx.Set) ([]memctx.Set, error) {
			return backend.Execute(isolation.Task{Prepared: prog, MemBytes: memBytes, Inputs: in})
		},
		in: []memctx.Set{{Name: "x", Items: []memctx.Item{{Name: "item0", Data: bytes.Repeat([]byte{0x5a}, echoBytes)}}}},
	}
	st.out, err = st.fn(st.in)
	return st, err
}

// --- binary batch workloads ------------------------------------------------

// batchItem is one pre-generated invocation and the bytes its single
// output item must hold.
type batchItem struct {
	inputs  map[string][]memctx.Item
	bytesIn int
	expect  []byte
}

// binarySource sends binary-framed batches of perReq invocations drawn
// (seeded) from a pool, and requires each result's one output item in
// outSet to equal the expected bytes.
type binarySource struct {
	path   string
	tenant string
	outSet string
	pool   []batchItem
	rng    *rand.Rand
	picked [batchSize]int
	resp   int // size of the last validated response body
}

func (s *binarySource) next(body *bytes.Buffer) call {
	enc := wire.NewEncoder(body)
	c := call{path: s.path, invocations: batchSize, respBytes: s.resp,
		header: [][2]string{{"Content-Type", wire.ContentTypeBinary}}}
	if s.tenant != "" {
		c.header = append(c.header, [2]string{"X-Tenant", s.tenant})
	}
	for i := range s.picked {
		s.picked[i] = s.rng.Intn(len(s.pool))
		it := s.pool[s.picked[i]]
		enc.EncodeRequest(it.inputs) // bytes.Buffer writes cannot fail
		c.bytesIn += it.bytesIn
	}
	enc.EncodeEnd()
	enc.Release()
	return c
}

func (s *binarySource) check(status int, resp []byte) (int, error) {
	if status != 200 {
		return 0, fmt.Errorf("status %d: %s", status, clip(resp))
	}
	dec := wire.NewDecoder(bytes.NewReader(resp))
	defer dec.Release()
	defer dec.Recycle()
	out := 0
	for i, pick := range s.picked {
		sets, errMsg, err := dec.DecodeResult()
		if err != nil {
			return 0, fmt.Errorf("result %d: %w", i, err)
		}
		if errMsg != "" {
			return 0, fmt.Errorf("result %d: server error: %s", i, errMsg)
		}
		items := sets[s.outSet]
		if len(items) != 1 || !bytes.Equal(items[0].Data, s.pool[pick].expect) {
			return 0, fmt.Errorf("result %d: output set %q does not match the expected %d bytes", i, s.outSet, len(s.pool[pick].expect))
		}
		out += len(items[0].Data)
	}
	if _, _, err := dec.DecodeResult(); err != io.EOF {
		return 0, fmt.Errorf("response does not end after %d results: %v", batchSize, err)
	}
	s.resp = len(resp)
	return out, nil
}

func setsBytes(sets map[string][]memctx.Item) int {
	n := 0
	for _, items := range sets {
		for _, it := range items {
			n += len(it.Data)
		}
	}
	return n
}

// scanDigest recomputes StorageScan's summary line for one blob
// independently of the served function: FNV-1a over the bytes, one
// record per newline.
func scanDigest(blob []byte) []byte {
	hash, records := uint64(0xcbf29ce484222325), 0
	for _, b := range blob {
		hash = (hash ^ uint64(b)) * 0x100000001b3
		if b == '\n' {
			records++
		}
	}
	return []byte(fmt.Sprintf("blobs=1 bytes=%d records=%d hash=%016x", len(blob), records, hash))
}

// newScanSource builds batch-ingest traffic: blobs whose contents the
// seed picks, one blob per invocation.
func newScanSource(seed int64, connIdx int) *binarySource {
	gen := rand.New(rand.NewSource(seed))
	s := &binarySource{path: "/invoke-batch/" + workloads.WorkloadStorageScan, outSet: "Result",
		rng: rand.New(rand.NewSource(seed ^ int64(connIdx+1)<<32))}
	for i := 0; i < poolSize; i++ {
		blob := workloads.MakeBlob(blobBytes, gen.Uint64()|1)
		s.pool = append(s.pool, batchItem{
			inputs:  map[string][]memctx.Item{"Blobs": {{Name: fmt.Sprintf("blob%03d", i), Data: blob}}},
			bytesIn: len(blob), expect: scanDigest(blob),
		})
	}
	s.resp = batchSize * len(s.pool[0].expect)
	return s
}

// newFetchSource builds batch-egress traffic: blob names the seed
// picks, whose contents the server must generate exactly.
func newFetchSource(seed int64, connIdx int) *binarySource {
	gen := rand.New(rand.NewSource(seed))
	s := &binarySource{path: "/invoke-batch/" + workloads.WorkloadStorageFetch, outSet: "Blobs",
		rng: rand.New(rand.NewSource(seed ^ int64(connIdx+1)<<32)), resp: batchSize * blobBytes}
	size := []byte(strconv.Itoa(blobBytes))
	for i := 0; i < poolSize; i++ {
		name := fmt.Sprintf("obj-%016x", gen.Uint64())
		s.pool = append(s.pool, batchItem{
			inputs:  map[string][]memctx.Item{"Sizes": {{Name: name, Data: size}}},
			bytesIn: len(size), expect: workloads.MakeBlob(blobBytes, workloads.SeedFromName(name)),
		})
	}
	return s
}

// newSSBSource builds the analytics tenant: each invocation runs one
// query flight (picked by seed per request) over the first ssbRows
// fact rows, answered as SSBExpect computes it.
func newSSBSource(seed int64) (*binarySource, error) {
	chunks, err := workloads.MakeSSBChunks(ssbRows, ssbChunks)
	if err != nil {
		return nil, err
	}
	s := &binarySource{path: "/invoke-batch/" + workloads.WorkloadSSBQuery, tenant: "analytics", outSet: "Result",
		rng: rand.New(rand.NewSource(seed ^ 0x55b))}
	for _, q := range ssb.Queries() {
		want, err := workloads.SSBExpect(q, ssbRows)
		if err != nil {
			return nil, err
		}
		in := map[string][]memctx.Item{"Query": {workloads.MakeSSBQuery(q)}, "Chunks": chunks}
		s.pool = append(s.pool, batchItem{inputs: in, bytesIn: setsBytes(in), expect: want.Encode()})
		s.resp += len(s.pool[len(s.pool)-1].expect)
	}
	return s, nil
}

// --- two-tenant interactive connection --------------------------------------

type seededImage struct {
	name string
	img  *image.NRGBA
	qoi  []byte
	png  []byte // the server's PNG, once its pixels were verified
	body []byte // the whole response body that carried it
}

type sentKey struct {
	key string
	img int
}

// imageSource is the interactive tenant: JSON batches of one QOI image
// under a fresh idempotency key, a seeded share of which re-send a
// recent key and must get the identical bytes back.
type imageSource struct {
	seed    int64
	rng     *rand.Rand
	pool    []seededImage
	recent  []sentKey // ring of the last resendRing keys
	n       int64
	cur     sentKey
	resend  bool
	resends int // keys re-sent so far, over every phase
}

func newImageSource(seed int64) *imageSource {
	gen := rand.New(rand.NewSource(seed))
	s := &imageSource{seed: seed, rng: rand.New(rand.NewSource(seed ^ 0x1a6e))}
	for i := 0; i < imagePool; i++ {
		img := image.NewNRGBA(image.Rect(0, 0, imageSide, imageSide))
		a, b, c, block := gen.Intn(7)+1, gen.Intn(7)+1, gen.Intn(256), uint8(gen.Intn(256))
		for y := 0; y < imageSide; y++ {
			for x := 0; x < imageSide; x++ {
				px := color.NRGBA{R: uint8(x*a*8 + c), G: uint8(y*b*8 + c), B: uint8((x ^ y) * a), A: 255}
				if (x/8+y/8)%2 == 0 {
					px.B = block
				}
				img.SetNRGBA(x, y, px)
			}
		}
		s.pool = append(s.pool, seededImage{name: fmt.Sprintf("img%03d.qoi", i), img: img, qoi: qoiimg.Encode(img)})
	}
	return s
}

func (s *imageSource) next(body *bytes.Buffer) call {
	s.resend = len(s.recent) > 0 && s.rng.Float64() < resendShare
	if s.resend {
		s.cur = s.recent[s.rng.Intn(len(s.recent))]
		s.resends++
	} else {
		s.cur = sentKey{key: fmt.Sprintf("bench-%d-%d", s.seed, s.n), img: s.rng.Intn(len(s.pool))}
		if len(s.recent) < resendRing {
			s.recent = append(s.recent, s.cur)
		} else {
			s.recent[s.n%resendRing] = s.cur
		}
		s.n++
	}
	im := &s.pool[s.cur.img]
	json.NewEncoder(body).Encode([]wire.BatchRequest{{ // bytes.Buffer writes cannot fail
		Inputs: map[string][]wire.Item{"Images": {{Name: im.name, Data: im.qoi}}},
	}})
	return call{
		path: "/invoke-batch/" + workloads.WorkloadImagePipeline,
		header: [][2]string{{"Content-Type", wire.ContentTypeJSON}, {"X-Tenant", "interactive"},
			{"Idempotency-Key", s.cur.key}},
		invocations: 1, bytesIn: len(im.qoi), respBytes: max(len(im.body), len(im.qoi)),
	}
}

func (s *imageSource) check(status int, resp []byte) (int, error) {
	if status != 200 {
		return 0, fmt.Errorf("status %d: %s", status, clip(resp))
	}
	var results []wire.BatchResult
	if err := json.Unmarshal(resp, &results); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	if len(results) != 1 || results[0].Error != "" {
		return 0, fmt.Errorf("want one error-free result, got %s", clip(resp))
	}
	items := results[0].Outputs["PNGs"]
	im := &s.pool[s.cur.img]
	if len(items) != 1 || items[0].Name != im.name+".png" {
		return 0, fmt.Errorf("want one PNG named %s.png, got %d items", im.name, len(items))
	}
	if im.png == nil {
		// First answer for this image: the PNG must decode to the source
		// pixels. Transcoding is deterministic, so every later answer —
		// and every re-sent key — must then repeat these exact bytes.
		if err := samePixels(items[0].Data, im.img); err != nil {
			return 0, err
		}
		im.png, im.body = items[0].Data, append([]byte(nil), resp...)
	} else if !bytes.Equal(items[0].Data, im.png) {
		return 0, errors.New("PNG bytes differ from the first answer for the same image")
	}
	if s.resend && !bytes.Equal(resp, im.body) {
		return 0, fmt.Errorf("re-sent key %s did not return the identical response bytes", s.cur.key)
	}
	return len(items[0].Data), nil
}

func samePixels(pngData []byte, want *image.NRGBA) error {
	got, err := png.Decode(bytes.NewReader(pngData))
	if err != nil {
		return fmt.Errorf("decode PNG: %w", err)
	}
	if got.Bounds() != want.Bounds() {
		return fmt.Errorf("PNG bounds %v, want %v", got.Bounds(), want.Bounds())
	}
	b := want.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			if color.NRGBAModel.Convert(got.At(x, y)) != want.NRGBAAt(x, y) {
				return fmt.Errorf("PNG pixel (%d,%d) differs from the source image", x, y)
			}
		}
	}
	return nil
}

// --- function bodies ---------------------------------------------------------

// capture is the workloads.Registrar that keeps the served function
// bodies instead of installing them, so the benchmark can time the
// work no platform change can remove.
type capture map[string]goFunc

func (c capture) RegisterFunction(f core.ComputeFunc) error {
	c[f.Name] = f.Go
	return nil
}

func (c capture) RegisterCompositionText(string) ([]string, error) { return nil, nil }

// runStages runs one invocation's inputs through the named served
// functions the way their composition does — the first function once
// per item of its "each" input set, the optional second once over all
// first-stage outputs — and returns every instance with its sets.
func runStages(inputs map[string][]memctx.Item, names ...string) ([]stage, error) {
	fns := capture{}
	if _, err := workloads.Register(fns, "all"); err != nil {
		return nil, err
	}
	each := map[string][2]string{ // function -> {composition input fanned out per item, parameter name}
		"StoreScan": {"Blobs", "Blob"}, "StoreGen": {"Sizes", "Size"},
		"ImageTranscode": {"Images", "Image"}, "SSBPartial": {"Chunks", "Chunk"},
	}
	first, ok := each[names[0]]
	if fns[names[0]] == nil || !ok {
		return nil, fmt.Errorf("served function %q is not registered by the workload suites", names[0])
	}
	var stages []stage
	var merged []memctx.Item
	for _, it := range inputs[first[0]] {
		st := stage{fn: fns[names[0]], in: []memctx.Set{{Name: first[1], Items: []memctx.Item{it}}}}
		if q, ok := inputs["Query"]; ok {
			st.in = append([]memctx.Set{{Name: "Q", Items: q}}, st.in...)
		}
		out, err := st.fn(st.in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[0], err)
		}
		st.out = out
		stages = append(stages, st)
		merged = append(merged, out[0].Items...)
	}
	if len(names) > 1 {
		st := stage{fn: fns[names[1]], in: []memctx.Set{{Name: "All", Items: merged}}}
		if st.fn == nil {
			return nil, fmt.Errorf("served function %q is not registered by the workload suites", names[1])
		}
		out, err := st.fn(st.in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[1], err)
		}
		st.out = out
		stages = append(stages, st)
	}
	return stages, nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}
