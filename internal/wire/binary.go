// Binary framing for the data plane. The JSON shapes in wire.go stay
// a client-facing form, but every byte they carry pays encoding/json
// marshal/unmarshal plus the 4/3 base64 inflation of []byte payloads.
// The coordinator→worker hop therefore speaks only this framing. The
// length-prefixed binary form here removes both costs: payloads travel raw, framing is
// uvarint-prefixed, and both ends reuse pooled buffers so the wire
// path itself allocates (almost) nothing per request.
//
// # Frame grammar
//
// A stream opens with a two-byte header and then carries records until
// FrameEnd or EOF:
//
//	stream  := Magic Version record*
//	record  := FrameRequest sets          one batch request
//	         | FrameKeyedRequest string sets   one keyed batch request
//	         | FrameResult  sets          one successful result slot
//	         | FrameError   string        one failed result slot
//	         | FrameEnd                   clean end of stream
//	sets    := nsets:uvarint set*
//	set     := name:string nitems:uvarint item*
//	item    := name:string key:string data:bytes
//	string  := len:uvarint utf8-bytes
//	bytes   := len:uvarint raw-bytes
//
// A request stream is FrameRequest records closed by FrameEnd; a
// response stream is FrameResult/FrameError records (one per request,
// in request order) closed by FrameEnd. The Version byte exists for
// evolution: a decoder rejects versions it does not know, so a future
// revision can change the record grammar behind a version bump without
// ambiguity.
//
// # Streaming and memory discipline
//
// Encoder and Decoder are streaming: each record is encoded or decoded
// independently, so a server can decode requests incrementally and
// start executing while the body is still uploading, and flush result
// records per sub-batch. Decoded payloads are sliced out of pooled
// read buffers — they stay valid until the decoder's next Recycle
// call, which returns the buffers to the pool. Callers that hand
// decoded data a longer lifetime (e.g. a cluster client returning
// results upward) simply never Recycle; the buffers are then ordinary
// garbage-collected memory.
//
// Length prefixes are adversarial input: every declared length is
// checked against the decoder's frame limit. Payloads up to the
// largest pooled slab class land in one right-sized pooled slab with a
// single ReadFull — a lying prefix costs one bounded, reusable slab,
// the same order as a legitimate request of that size. Only payloads
// beyond the slab classes (> 8 MiB) fall back to growth in bounded
// steps, so a prefix claiming gigabytes backed by a ten-byte stream
// still errors after a small, capped allocation.
//
// # Vectored writes
//
// The encoder stages only framing bytes (type tags, uvarint lengths,
// names) and small payloads in its pooled scratch buffer. Payload
// slices of vectorMinBytes or more are never memcpy'd: at flush time
// the record goes out as a net.Buffers vector — framing runs from the
// scratch buffer interleaved with the caller's payload slices — which
// collapses to writev on a TCP connection. Encoding a 1 MiB result
// therefore costs zero payload copies and zero payload-sized
// allocations; per-flush buffering is bounded by the framing bytes
// plus sub-threshold payloads.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"

	"dandelion/internal/memctx"
)

// ContentTypeBinary is the Content-Type of the binary framing: a
// request body sent with it is decoded as frames and answered in
// frames. The request Content-Type alone picks the framing; there is no
// negotiation. ContentTypeJSON marks the JSON forms.
const (
	ContentTypeBinary = "application/x-dandelion-frame"
	ContentTypeJSON   = "application/json"
)

// Magic and Version open every binary stream. Version is the evolution
// hook: decoders reject unknown versions, so the grammar can change
// behind a bump.
const (
	Magic   byte = 0xD4
	Version byte = 0x01
)

// Frame type bytes, one per record kind. Every constant here is
// documented in docs/WIRE.md (enforced by scripts/docs-check.sh).
const (
	// FrameRequest carries one batch request (its input sets).
	FrameRequest byte = 'Q'
	// FrameKeyedRequest carries one batch request with an idempotency
	// key: key:string, then the input sets. Encoders emit it only when
	// a key is present, so unkeyed streams are byte-identical to the
	// pre-key grammar.
	FrameKeyedRequest byte = 'K'
	// FrameResult carries one successful result slot (its output sets).
	FrameResult byte = 'R'
	// FrameError carries one failed result slot (its error message).
	FrameError byte = 'E'
	// FrameEnd closes a stream cleanly; a stream that stops without it
	// was truncated.
	FrameEnd byte = '.'
)

// ErrFrame wraps every malformed-stream condition a Decoder reports:
// bad magic or version, unknown frame types, truncated records, and
// length prefixes exceeding the frame limit.
var ErrFrame = errors.New("wire: malformed frame")

// ErrFrameTooLarge is the over-budget subclass of ErrFrame: a record's
// declared payload lengths exceed the decoder's frame budget
// (SetMaxFrameBytes). It wraps ErrFrame, so existing
// errors.Is(err, ErrFrame) checks still match; callers that want to
// distinguish "too big" from "malformed" (the frontend answers 413
// instead of 400) test for this sentinel first.
var ErrFrameTooLarge = fmt.Errorf("%w: payload exceeds frame budget", ErrFrame)

// DefaultMaxFrameBytes bounds the total declared payload of one record
// (64 MiB); Decoder.SetMaxFrameBytes overrides per decoder.
const DefaultMaxFrameBytes = 64 << 20

// maxItemsPrealloc caps how many item slots a declared count may
// reserve before any data has been read: a count is as adversarial as
// a length, so capacity beyond this is earned by actually arriving.
const maxItemsPrealloc = 4096

// chunkSize is the pooled read-buffer granularity payloads are sliced
// from; payloads larger than a chunk land in one right-sized pooled
// slab (see slabSizes).
const chunkSize = 256 << 10

// readStep bounds each growth increment when reading a payload larger
// than the largest slab class, so a lying length prefix beyond the
// pooled sizes can only ever cost one step of over-allocation.
const readStep = 256 << 10

// vectorMinBytes is the encoder's vectoring threshold: payload slices
// at least this long are flushed as their own output vector instead of
// being memcpy'd into the scratch buffer. Below it, the copy is
// cheaper than the extra Write a non-connection sink would pay.
const vectorMinBytes = 4 << 10

// maxRetainedEncBuf caps the scratch capacity an encoder returns to
// the pool: a record dense with sub-threshold payloads can still grow
// the staging buffer, and retaining multi-megabyte scratch forever
// would turn the pool into a leak.
const maxRetainedEncBuf = 1 << 20

// slabSizes are the pooled oversize-payload classes: a payload larger
// than one chunk is read with a single ReadFull into the smallest slab
// that fits, instead of growing a dedicated buffer in copy steps.
// Payloads beyond the largest class (adversarial or truly giant) fall
// back to readStep-bounded growth.
var slabSizes = [...]int{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}

var (
	chunkPool = sync.Pool{New: func() any {
		b := make([]byte, chunkSize)
		return &b
	}}
	slabPools   [len(slabSizes)]sync.Pool
	readerPool  = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32<<10) }}
	encBufPool  = sync.Pool{New: func() any { return new([]byte) }}
	itemSlabLen = 512
	itemPool    = sync.Pool{New: func() any {
		s := make([]memctx.Item, itemSlabLen)
		return &s
	}}
)

func init() {
	for i := range slabPools {
		sz := slabSizes[i]
		slabPools[i].New = func() any {
			b := make([]byte, sz)
			return &b
		}
	}
}

// Encoder writes binary frames to w. Framing bytes and sub-threshold
// payloads are staged in one pooled scratch buffer; payload slices of
// vectorMinBytes or more are recorded by reference and flushed as a
// net.Buffers vector (writev on a TCP connection), so large payloads
// are never memcpy'd into the encoder. Encoding a record costs no
// payload-sized allocations in steady state. Encoders are not safe for
// concurrent use. Call Release when done to return the scratch buffer
// to the pool.
//
// Vectored payload slices are borrowed only until the Encode* call
// returns (every Encode* flushes); callers may reuse or recycle them
// afterwards.
type Encoder struct {
	w           io.Writer
	buf         []byte
	ext         []extSlice
	vecs        net.Buffers
	names       []string
	wroteHeader bool
}

// extSlice records a vectored payload: at flush, data is spliced into
// the output stream right after buf[:pos].
type extSlice struct {
	pos  int
	data []byte
}

// NewEncoder returns an encoder framing onto w. The stream header is
// written lazily, before the first record.
func NewEncoder(w io.Writer) *Encoder {
	bp := encBufPool.Get().(*[]byte)
	return &Encoder{w: w, buf: (*bp)[:0]}
}

// Release returns the encoder's scratch buffer to the pool. The
// encoder must not be used afterwards.
func (e *Encoder) Release() {
	if e.buf != nil {
		if cap(e.buf) <= maxRetainedEncBuf {
			buf := e.buf[:0]
			encBufPool.Put(&buf)
		}
		e.buf = nil
	}
}

// flush writes the staged record and retains the scratch capacity.
// With no vectored payloads the record goes out as one Write, exactly
// as before; otherwise it goes out as a gather vector interleaving
// framing runs from the scratch buffer with the payload slices.
func (e *Encoder) flush() error {
	var err error
	if len(e.ext) == 0 {
		_, err = e.w.Write(e.buf)
	} else {
		vecs := e.vecs[:0]
		cur := 0
		for _, x := range e.ext {
			if x.pos > cur {
				vecs = append(vecs, e.buf[cur:x.pos])
			}
			if len(x.data) > 0 {
				vecs = append(vecs, x.data)
			}
			cur = x.pos
		}
		if cur < len(e.buf) {
			vecs = append(vecs, e.buf[cur:])
		}
		bufs := vecs
		_, err = bufs.WriteTo(e.w)
		e.vecs = vecs[:0]
		e.ext = e.ext[:0]
	}
	e.buf = e.buf[:0]
	return err
}

func (e *Encoder) header() {
	if !e.wroteHeader {
		e.buf = append(e.buf, Magic, Version)
		e.wroteHeader = true
	}
}

func (e *Encoder) putUvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *Encoder) putString(s string) {
	e.putUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *Encoder) putBytes(b []byte) {
	e.putUvarint(uint64(len(b)))
	if len(b) >= vectorMinBytes {
		// Vectored: the slice goes out by reference at flush time,
		// never copied into the scratch buffer.
		e.ext = append(e.ext, extSlice{pos: len(e.buf), data: b})
		return
	}
	e.buf = append(e.buf, b...)
}

// putSets stages a set map. Set names are emitted in sorted order so
// identical maps encode to identical bytes (map iteration order must
// never decide wire bytes).
func (e *Encoder) putSets(sets map[string][]memctx.Item) {
	e.putUvarint(uint64(len(sets)))
	names := e.names[:0]
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	e.names = names
	for _, name := range names {
		e.putString(name)
		items := sets[name]
		e.putUvarint(uint64(len(items)))
		for i := range items {
			e.putString(items[i].Name)
			e.putString(items[i].Key)
			e.putBytes(items[i].Data)
		}
	}
}

// EncodeRequest writes one FrameRequest record carrying the request's
// input sets (the binary form of BatchRequest.Inputs, in platform
// shape — no wire.Item intermediate, no base64).
func (e *Encoder) EncodeRequest(inputs map[string][]memctx.Item) error {
	e.header()
	e.buf = append(e.buf, FrameRequest)
	e.putSets(inputs)
	return e.flush()
}

// EncodeKeyedRequest writes one FrameKeyedRequest record: the
// request's idempotency key, then its input sets. An empty key
// degrades to a plain FrameRequest record, keeping unkeyed streams
// byte-identical to the pre-key grammar.
func (e *Encoder) EncodeKeyedRequest(key string, inputs map[string][]memctx.Item) error {
	if key == "" {
		return e.EncodeRequest(inputs)
	}
	e.header()
	e.buf = append(e.buf, FrameKeyedRequest)
	e.putString(key)
	e.putSets(inputs)
	return e.flush()
}

// EncodeResult writes one FrameResult record carrying a successful
// result slot's output sets.
func (e *Encoder) EncodeResult(outputs map[string][]memctx.Item) error {
	e.header()
	e.buf = append(e.buf, FrameResult)
	e.putSets(outputs)
	return e.flush()
}

// EncodeError writes one FrameError record carrying a failed result
// slot's error message. Frontends pass the "<token>: <text>" form of
// core.EncodeReason, so the receiver can recover the error's meaning
// (docs/WIRE.md).
func (e *Encoder) EncodeError(msg string) error {
	e.header()
	e.buf = append(e.buf, FrameError)
	e.putString(msg)
	return e.flush()
}

// EncodeEnd closes the stream with a FrameEnd record. Receivers treat
// a stream that stops without one as truncated.
func (e *Encoder) EncodeEnd() error {
	e.header()
	e.buf = append(e.buf, FrameEnd)
	return e.flush()
}

// Decoder reads binary frames from r. Decoded payloads, item slices,
// and set maps are carved out of pooled buffers owned by the decoder:
// everything returned since the last Recycle stays valid until the
// next Recycle (or forever, if Recycle is never called — the buffers
// are then ordinary GC'd memory). Decoders are not safe for concurrent
// use. Call Release when done with the stream.
type Decoder struct {
	br        *bufio.Reader
	gotHeader bool
	maxFrame  int

	// chunks are the payload arenas handed out since the last Recycle;
	// the last entry is the current carving target at offset off.
	// Oversized dedicated buffers are appended too, but only
	// chunk-sized entries return to the pool.
	chunks [][]byte
	off    int

	// slabs are the item arenas; items are carved from the last entry
	// at itemOff.
	slabs   [][]memctx.Item
	itemOff int

	// free/used are the reusable set-map shells.
	free []map[string][]memctx.Item
	used []map[string][]memctx.Item

	// interned deduplicates the set/item name strings that repeat on
	// every record of a stream.
	interned map[string]string
}

// NewDecoder returns a decoder reading binary frames from r.
func NewDecoder(r io.Reader) *Decoder {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return &Decoder{br: br, maxFrame: DefaultMaxFrameBytes}
}

// SetMaxFrameBytes bounds the total declared payload of one record;
// declared lengths beyond it fail with ErrFrameTooLarge before
// allocating.
func (d *Decoder) SetMaxFrameBytes(n int) {
	if n > 0 {
		d.maxFrame = n
	}
}

// Recycle returns every pooled buffer handed out since the last
// Recycle, invalidating all sets, items, and payloads decoded since
// then. Callers recycle at natural lifetime boundaries (the frontend:
// after a sub-batch's results are serialized); callers whose decoded
// data escapes skip it.
func (d *Decoder) Recycle() {
	for _, c := range d.chunks {
		if cap(c) == chunkSize {
			c = c[:chunkSize]
			chunkPool.Put(&c)
			continue
		}
		for i, sz := range slabSizes {
			if cap(c) == sz {
				c = c[:sz]
				slabPools[i].Put(&c)
				break
			}
		}
	}
	d.chunks = d.chunks[:0]
	d.off = 0
	for _, s := range d.slabs {
		if cap(s) == itemSlabLen {
			s = s[:itemSlabLen]
			clear(s) // drop Data references so pooled slabs never pin payloads
			itemPool.Put(&s)
		}
	}
	d.slabs = d.slabs[:0]
	d.itemOff = 0
	for _, m := range d.used {
		clear(m)
		d.free = append(d.free, m)
	}
	d.used = d.used[:0]
}

// Release returns the decoder's bufio reader to the pool. Buffers
// handed out and not recycled remain valid (they are simply left to
// the garbage collector). The decoder must not be used afterwards.
func (d *Decoder) Release() {
	if d.br != nil {
		d.br.Reset(nil)
		readerPool.Put(d.br)
		d.br = nil
	}
}

func frameErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

func (d *Decoder) readHeader() error {
	if d.gotHeader {
		return nil
	}
	magic, err := d.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return frameErrf("reading magic: %v", err)
	}
	version, err := d.br.ReadByte()
	if err != nil {
		return frameErrf("reading version: %v", err)
	}
	if magic != Magic {
		return frameErrf("bad magic 0x%02x", magic)
	}
	if version != Version {
		return frameErrf("unsupported version %d", version)
	}
	d.gotHeader = true
	return nil
}

func (d *Decoder) readUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, frameErrf("reading length: %v", err)
	}
	return v, nil
}

// readLen reads a length prefix and validates it against the frame
// budget, decrementing the budget so one record's prefixes cannot sum
// past the limit however they are split.
func (d *Decoder) readLen(budget *int) (int, error) {
	v, err := d.readUvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(math.MaxInt) || int(v) > *budget {
		return 0, fmt.Errorf("%w (declared length %d)", ErrFrameTooLarge, v)
	}
	*budget -= int(v)
	return int(v), nil
}

// carve returns n payload bytes out of the pooled chunk arena,
// acquiring a new chunk when the current one is exhausted. Requests
// larger than a chunk get a dedicated buffer.
func (d *Decoder) carve(n int) []byte {
	if n > chunkSize {
		b := make([]byte, n)
		d.chunks = append(d.chunks, b)
		return b
	}
	if len(d.chunks) == 0 || d.off+n > cap(d.chunks[len(d.chunks)-1]) ||
		cap(d.chunks[len(d.chunks)-1]) != chunkSize {
		c := *(chunkPool.Get().(*[]byte))
		d.chunks = append(d.chunks, c)
		d.off = 0
	}
	cur := d.chunks[len(d.chunks)-1]
	b := cur[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// readBytes reads an n-byte payload. Payloads at most one chunk long
// are sliced out of the pooled arena. Larger payloads up to the
// largest slab class land in one right-sized pooled slab with a single
// ReadFull — no growth, no copy steps; a lying length prefix costs one
// reusable slab, the same order as a legitimate payload of that size.
// Only payloads beyond the slab classes fall back to a dedicated
// buffer grown in readStep-bounded increments, so a prefix claiming
// gigabytes backed by a short stream still errors after at most one
// bounded step of allocation.
func (d *Decoder) readBytes(n int) ([]byte, error) {
	if n == 0 {
		return []byte{}, nil
	}
	if n <= chunkSize {
		b := d.carve(n)
		if _, err := io.ReadFull(d.br, b); err != nil {
			return nil, frameErrf("payload truncated: %v", err)
		}
		return b, nil
	}
	if n <= slabSizes[len(slabSizes)-1] {
		for i, sz := range slabSizes {
			if n <= sz {
				s := *(slabPools[i].Get().(*[]byte))
				d.chunks = append(d.chunks, s)
				b := s[:n:n]
				if _, err := io.ReadFull(d.br, b); err != nil {
					return nil, frameErrf("payload truncated: %v", err)
				}
				return b, nil
			}
		}
	}
	buf := make([]byte, 0, readStep)
	for len(buf) < n {
		step := n - len(buf)
		if step > readStep {
			step = readStep
		}
		if cap(buf)-len(buf) < step {
			grown := make([]byte, len(buf), cap(buf)*2)
			copy(grown, buf)
			buf = grown
		}
		lo := len(buf)
		buf = buf[:lo+step]
		if _, err := io.ReadFull(d.br, buf[lo:]); err != nil {
			return nil, frameErrf("payload truncated: %v", err)
		}
	}
	d.chunks = append(d.chunks, buf)
	return buf, nil
}

// readString reads a length-prefixed string, interning it so the set
// and item names repeating on every record of a stream allocate once.
func (d *Decoder) readString(budget *int) (string, error) {
	n, err := d.readLen(budget)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	b, err := d.readBytes(n)
	if err != nil {
		return "", err
	}
	if s, ok := d.interned[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	if d.interned == nil {
		d.interned = make(map[string]string, 16)
	}
	if len(d.interned) < 256 {
		d.interned[s] = s
	}
	return s, nil
}

// getMap returns a reusable set-map shell.
func (d *Decoder) getMap() map[string][]memctx.Item {
	var m map[string][]memctx.Item
	if n := len(d.free); n > 0 {
		m = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		m = make(map[string][]memctx.Item, 4)
	}
	d.used = append(d.used, m)
	return m
}

// carveItems returns an empty item slice that can grow to n entries,
// carved from the pooled slab when it fits.
func (d *Decoder) carveItems(n int) []memctx.Item {
	if n > itemSlabLen {
		if n > maxItemsPrealloc {
			n = maxItemsPrealloc
		}
		s := make([]memctx.Item, 0, n)
		d.slabs = append(d.slabs, s)
		return s
	}
	if len(d.slabs) == 0 || d.itemOff+n > itemSlabLen ||
		cap(d.slabs[len(d.slabs)-1]) != itemSlabLen {
		s := *(itemPool.Get().(*[]memctx.Item))
		d.slabs = append(d.slabs, s)
		d.itemOff = 0
	}
	cur := d.slabs[len(d.slabs)-1]
	s := cur[d.itemOff : d.itemOff : d.itemOff+n]
	d.itemOff += n
	return s
}

// readSets decodes one sets block into a pooled map shell.
func (d *Decoder) readSets() (map[string][]memctx.Item, error) {
	budget := d.maxFrame
	nsets, err := d.readLen(&budget)
	if err != nil {
		return nil, err
	}
	sets := d.getMap()
	for si := 0; si < nsets; si++ {
		name, err := d.readString(&budget)
		if err != nil {
			return nil, err
		}
		nitems, err := d.readLen(&budget)
		if err != nil {
			return nil, err
		}
		items := d.carveItems(nitems)
		for ii := 0; ii < nitems; ii++ {
			var it memctx.Item
			if it.Name, err = d.readString(&budget); err != nil {
				return nil, err
			}
			if it.Key, err = d.readString(&budget); err != nil {
				return nil, err
			}
			n, err := d.readLen(&budget)
			if err != nil {
				return nil, err
			}
			if it.Data, err = d.readBytes(n); err != nil {
				return nil, err
			}
			items = append(items, it)
		}
		sets[name] = items
	}
	return sets, nil
}

// next reads the next record's frame type byte (after the stream
// header on first call). A clean FrameEnd — and, leniently, a bare
// EOF at a record boundary — surfaces as io.EOF.
func (d *Decoder) next() (byte, error) {
	if err := d.readHeader(); err != nil {
		return 0, err
	}
	k, err := d.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, frameErrf("reading frame type: %v", err)
	}
	if k == FrameEnd {
		return 0, io.EOF
	}
	return k, nil
}

// DecodeRequest decodes the next FrameRequest record into its input
// sets (platform shape, valid until Recycle). It returns io.EOF at the
// clean end of the stream and ErrFrame-wrapped errors otherwise.
func (d *Decoder) DecodeRequest() (map[string][]memctx.Item, error) {
	k, err := d.next()
	if err != nil {
		return nil, err
	}
	if k != FrameRequest {
		return nil, frameErrf("unexpected frame type %q (want request)", k)
	}
	return d.readSets()
}

// DecodeKeyedRequest decodes the next request record of either form:
// FrameRequest yields an empty key, FrameKeyedRequest its idempotency
// key. It returns io.EOF at the clean end of the stream.
func (d *Decoder) DecodeKeyedRequest() (inputs map[string][]memctx.Item, key string, err error) {
	k, err := d.next()
	if err != nil {
		return nil, "", err
	}
	switch k {
	case FrameRequest:
		inputs, err = d.readSets()
		return inputs, "", err
	case FrameKeyedRequest:
		budget := d.maxFrame
		if key, err = d.readString(&budget); err != nil {
			return nil, "", err
		}
		inputs, err = d.readSets()
		return inputs, key, err
	default:
		return nil, "", frameErrf("unexpected frame type %q (want request)", k)
	}
}

// DecodeResult decodes the next result record: FrameResult yields the
// output sets, FrameError yields the error message. It returns io.EOF
// at the clean end of the stream.
func (d *Decoder) DecodeResult() (outputs map[string][]memctx.Item, errMsg string, err error) {
	k, err := d.next()
	if err != nil {
		return nil, "", err
	}
	switch k {
	case FrameResult:
		outputs, err = d.readSets()
		return outputs, "", err
	case FrameError:
		budget := d.maxFrame
		msg, err := d.readString(&budget)
		return nil, msg, err
	default:
		return nil, "", frameErrf("unexpected frame type %q (want result)", k)
	}
}
