// Package journal is the durable invocation journal (ROADMAP: the
// restatedev-style durable execution log). A Journal is an append-only
// sequence of Records: every keyed invocation writes a begin/end pair,
// every /admin reconfiguration writes a reconfig record, and every
// completed keyed batch chunk writes one chunk-completion record. On
// restart the platform replays the journal to rebuild the completed-key
// dedup table and to re-apply persisted reconfigurations, so crashed
// workers recover instead of losing work and retried chunks are
// deduplicated rather than double-executed.
//
// Two implementations ship: Memory (tests, default-off production) and
// File (length-prefixed CRC-checked records with torn-tail truncation;
// see file.go and docs/JOURNAL.md for the on-disk grammar).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dandelion/internal/memctx"
)

// Kind tags what a Record describes.
type Kind byte

const (
	// KindInvokeBegin marks a keyed invocation admitted for execution:
	// tenant, composition, idempotency key, input digest.
	KindInvokeBegin Kind = 'B'
	// KindInvokeEnd marks a keyed invocation's outcome: key, outcome
	// digest, and A=1 when it failed (failed keys stay retryable).
	KindInvokeEnd Kind = 'E'
	// KindReconfig records an admin reconfiguration (Op says which);
	// replayed through ctlplane.Reconfigurer on startup.
	KindReconfig Kind = 'C'
	// KindChunkDone records a fully-completed keyed batch chunk in one
	// record: Key is the chunk's base key, A the first request index,
	// B the request count, Digest the combined outcome digest. Replay
	// expands it to B completed keys "base#A" .. "base#(A+B-1)".
	KindChunkDone Kind = 'K'
)

// Op says which control-plane knob a KindReconfig record turns.
type Op byte

const (
	// OpTenantWeight: Tenant + A=weight.
	OpTenantWeight Op = 'w'
	// OpEngineCounts: A=compute engines, B=communication engines.
	OpEngineCounts Op = 'e'
	// OpAdmissionClamp: A=min window, B=max window.
	OpAdmissionClamp Op = 'a'
	// OpAutoscale: A=1 on, A=0 off.
	OpAutoscale Op = 's'
	// OpDrain: A=1 draining, A=0 serving.
	OpDrain Op = 'd'
)

// Record is one journal entry. Seq is assigned by Append, gapless from
// 1 within a journal (a reopened file journal continues from the last
// durable record).
type Record struct {
	Seq    uint64
	Kind   Kind
	Op     Op
	Tenant string
	Comp   string // composition name (invoke records)
	Key    string // idempotency key, or chunk base key
	A, B   int64  // op parameters; chunk lo/count; end error flag in A
	Digest uint64 // input digest (begin) / outcome digest (end, chunk)
}

// Journal is an append-only record log. Implementations are safe for
// concurrent use; Replay may run concurrently with Append and observes
// a consistent prefix.
type Journal interface {
	// Append assigns the next sequence number, persists the record,
	// and returns the assigned sequence.
	Append(rec Record) (seq uint64, err error)
	// Replay calls fn for every record in sequence order. It stops
	// early if fn returns an error and returns that error.
	Replay(fn func(Record) error) error
	// Checkpoint is a durability barrier: all previously appended
	// records survive a crash once it returns (File flushes + fsyncs;
	// Memory is a no-op).
	Checkpoint() error
	// Close checkpoints and releases resources. Idempotent.
	Close() error
}

// Sizer is an optional Journal extension reporting the journal's
// durable size in bytes (exported as the JournalBytes stats gauge).
type Sizer interface {
	Size() int64
}

// Memory is the in-memory Journal: a mutex-guarded slice. Records are
// as durable as the process — it exists for tests and for keeping the
// dedup machinery exercised with journaling "off".
type Memory struct {
	mu   sync.Mutex
	recs []Record
}

// NewMemory returns an empty in-memory journal.
func NewMemory() *Memory { return &Memory{} }

func (m *Memory) Append(rec Record) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec.Seq = uint64(len(m.recs)) + 1
	m.recs = append(m.recs, rec)
	return rec.Seq, nil
}

func (m *Memory) Replay(fn func(Record) error) error {
	// Records are immutable once appended, so a snapshot of the slice
	// header is a consistent prefix even with concurrent Appends.
	m.mu.Lock()
	recs := m.recs
	m.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (m *Memory) Checkpoint() error { return nil }
func (m *Memory) Close() error      { return nil }

// Size reports the approximate encoded size of the journal.
func (m *Memory) Size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for i := range m.recs {
		n += int64(len(encodeBody(nil, &m.recs[i]))) + 6
	}
	return n
}

// ---- input/outcome digests ----

// DigestSets hashes named input sets deterministically (FNV-1a over a
// sorted serialization): same inputs, same digest, regardless of map
// iteration order.
func DigestSets(sets map[string][]memctx.Item) uint64 {
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var lenBuf [10]byte
	writeStr := func(s string) {
		n := putUvarint(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:n])
		h.Write([]byte(s))
	}
	for _, name := range names {
		writeStr(name)
		for _, it := range sets[name] {
			writeStr(it.Name)
			writeStr(it.Key)
			n := putUvarint(lenBuf[:], uint64(len(it.Data)))
			h.Write(lenBuf[:n])
			h.Write(it.Data)
		}
	}
	return h.Sum64()
}

// DigestOutcome hashes an invocation outcome: its output sets plus the
// error message (empty on success).
func DigestOutcome(outs map[string][]memctx.Item, errMsg string) uint64 {
	d := DigestSets(outs)
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(d >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(errMsg))
	return h.Sum64()
}

// ---- chunk keys ----

// ChunkKey forms the per-request idempotency key for request i of a
// batch chunk with the given base key: "base#i". ChunkShape recognizes
// the inverse.
func ChunkKey(base string, i int) string {
	return base + "#" + strconv.Itoa(i)
}

// ChunkShape reports whether keys form a contiguous run of chunk keys
// "base#lo" .. "base#lo+len(keys)-1" sharing one base — the shape the
// cluster manager assigns to batch chunks. Such runs journal as a
// single KindChunkDone record instead of per-request end records.
func ChunkShape(keys []string) (base string, lo int, ok bool) {
	if len(keys) == 0 {
		return "", 0, false
	}
	for i, k := range keys {
		j := strings.LastIndexByte(k, '#')
		if j <= 0 {
			return "", 0, false
		}
		n, err := strconv.Atoi(k[j+1:])
		if err != nil || n < 0 {
			return "", 0, false
		}
		if i == 0 {
			base, lo = k[:j], n
			continue
		}
		if k[:j] != base || n != lo+i {
			return "", 0, false
		}
	}
	return base, lo, true
}

// ---- completed-key dedup table ----

// ErrDuplicate is returned for an idempotency key whose invocation
// already completed but whose outputs are no longer cached (evicted,
// or completed in a previous process life and recovered by replay).
// The journaled outcome digest is included for auditing.
var ErrDuplicate = errors.New("journal: duplicate invocation")

// ErrInFlight is returned for an idempotency key whose invocation is
// still executing; the retry should back off and re-poll.
var ErrInFlight = errors.New("journal: invocation in flight")

// DefaultDedupEntries bounds the completed-key table; the oldest
// completed keys are evicted first (FIFO).
const DefaultDedupEntries = 64 << 10

// maxCachedOutputBytes caps how large an outcome may be and still have
// its outputs cached for transparent duplicate replies; larger
// outcomes dedup to ErrDuplicate instead of pinning memory.
const maxCachedOutputBytes = 1 << 20

// Dedup is the completed-key table: idempotency key -> outcome. Live
// completions cache their outputs (bounded) so a retried request gets
// the original reply; keys recovered by replay carry only the outcome
// digest and answer retries with ErrDuplicate.
//
// Completed keys live in a keyLog, off the GC heap where the platform
// allows: every key in the window stays resident, so its bytes set how
// peak memory follows keyed throughput (docs/JOURNAL.md).
type Dedup struct {
	mu      sync.Mutex
	log     *keyLog
	pending map[string]struct{}
	max     int
	hits    atomic.Uint64
	// copiedSets / copiedBytes count the output sets and payload bytes
	// Complete cloned into the table.
	copiedSets  atomic.Uint64
	copiedBytes atomic.Uint64
}

// NewDedup returns a table bounded to max completed keys
// (DefaultDedupEntries if max <= 0).
func NewDedup(max int) *Dedup { return newDedup(max, ^uint64(0)) }

// newDedup is NewDedup with every key hash masked by hashMask; tests
// narrow it so that keys share hashes.
func newDedup(max int, hashMask uint64) *Dedup {
	if max <= 0 {
		max = DefaultDedupEntries
	}
	d := &Dedup{log: newKeyLog(hashMask), pending: make(map[string]struct{}), max: max}
	// The log's chunks are not the GC's to free: release them once the
	// table is unreachable.
	runtime.AddCleanup(d, (*keyLog).free, d.log)
	return d
}

// Reserve claims key for execution. outs/err report a duplicate: a
// completed key returns a fresh copy of its cached outputs, which the
// caller owns (or ErrDuplicate when only the digest survives), an
// executing key returns ErrInFlight — both count as dedup hits and
// execute=false. A fresh key is marked in-flight and returns
// execute=true; the caller must follow with Complete or Release.
func (d *Dedup) Reserve(key string) (outs map[string][]memctx.Item, err error, execute bool) {
	d.mu.Lock()
	if r, _, ok := d.log.find(key); ok {
		// Copy the reply before unlocking: the log's memory is
		// released when the entry is evicted, so none of it may leave
		// the mutex.
		var reply []byte
		if len(r.reply) > 0 {
			reply = append([]byte(nil), r.reply...)
		}
		d.mu.Unlock()
		d.hits.Add(1)
		if reply != nil {
			return unpackOutputs(reply), nil, false
		}
		return nil, fmt.Errorf("%w: key %q already completed (outcome digest %016x)", ErrDuplicate, key, r.digest), false
	}
	if _, ok := d.pending[key]; ok {
		d.mu.Unlock()
		d.hits.Add(1)
		return nil, fmt.Errorf("%w: key %q", ErrInFlight, key), false
	}
	d.pending[key] = struct{}{}
	d.mu.Unlock()
	return nil, nil, true
}

// Complete marks a reserved key done, caching its outputs for
// transparent duplicate replies (unless oversized). The table keeps a
// packed copy, never outs itself: the caller's payloads may alias
// memory that is recycled once the reply is sent (a wire decoder's
// slab, an SDK caller's reused buffer), and a duplicate must repeat the
// first reply's bytes.
func (d *Dedup) Complete(key string, digest uint64, outs map[string][]memctx.Item) {
	var packed []byte
	n := outputBytes(outs)
	if outs != nil && n <= maxCachedOutputBytes {
		packed = packOutputs(outs)
	}
	d.mu.Lock()
	delete(d.pending, key)
	_, c, dup := d.log.find(key)
	if !dup {
		d.log.add(c, key, digest, packed, d.max)
	}
	d.mu.Unlock()
	if !dup && packed != nil {
		d.copiedSets.Add(uint64(len(outs)))
		d.copiedBytes.Add(uint64(n))
	}
}

// packOutputs copies outs into one exact-size buffer: the set count,
// then per set its name and item count, then per item its Name, its Key
// and its payload. Strings are uvarint-length-prefixed; a payload's
// prefix is its length + 1, and 0 marks a nil payload, so replies
// encode as the first one did.
func packOutputs(outs map[string][]memctx.Item) []byte {
	size := uvarintLen(len(outs))
	for name, items := range outs {
		size += stringLen(name) + uvarintLen(len(items))
		for _, it := range items {
			size += stringLen(it.Name) + stringLen(it.Key) + uvarintLen(len(it.Data)+1) + len(it.Data)
		}
	}
	p := make([]byte, 0, size)
	p = binary.AppendUvarint(p, uint64(len(outs)))
	for name, items := range outs {
		p = appendString(p, name)
		p = binary.AppendUvarint(p, uint64(len(items)))
		for _, it := range items {
			p = appendString(p, it.Name)
			p = appendString(p, it.Key)
			if it.Data == nil {
				p = append(p, 0)
				continue
			}
			p = binary.AppendUvarint(p, uint64(len(it.Data))+1)
			p = append(p, it.Data...)
		}
	}
	return p
}

// unpackOutputs rebuilds the outputs packOutputs packed. Payloads alias
// p, capped so that appending to one cannot overwrite the next.
func unpackOutputs(p []byte) map[string][]memctx.Item {
	u := unpacker(p)
	sets := u.uvarint()
	outs := make(map[string][]memctx.Item, sets)
	for ; sets > 0; sets-- {
		name := string(u.next(u.uvarint()))
		items := make([]memctx.Item, u.uvarint())
		for i := range items {
			items[i].Name = string(u.next(u.uvarint()))
			items[i].Key = string(u.next(u.uvarint()))
			if tag := u.uvarint(); tag > 0 {
				items[i].Data = u.next(tag - 1)
			}
		}
		outs[name] = items
	}
	return outs
}

// unpacker reads a buffer packOutputs wrote; the table wrote it itself,
// so it is well-formed.
type unpacker []byte

func (u *unpacker) uvarint() int {
	x, n := binary.Uvarint(*u)
	*u = (*u)[n:]
	return int(x)
}

func (u *unpacker) next(n int) []byte {
	b := (*u)[:n:n]
	*u = (*u)[n:]
	return b
}

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func stringLen(s string) int { return uvarintLen(len(s)) + len(s) }

// Release frees a reserved key after a failed execution so a retry may
// re-execute it.
func (d *Dedup) Release(key string) {
	d.mu.Lock()
	delete(d.pending, key)
	d.mu.Unlock()
}

// MarkReplayed records a key recovered from the journal: completed in
// a previous process life, outcome digest only, no cached outputs.
func (d *Dedup) MarkReplayed(key string, digest uint64) {
	d.mu.Lock()
	if _, c, ok := d.log.find(key); !ok {
		d.log.add(c, key, digest, nil, d.max)
	}
	d.mu.Unlock()
}

// Hits reports how many duplicate reservations the table absorbed.
func (d *Dedup) Hits() uint64 { return d.hits.Load() }

// Copied reports the output sets and payload bytes Complete has cloned
// into the table.
func (d *Dedup) Copied() (sets, bytes uint64) {
	return d.copiedSets.Load(), d.copiedBytes.Load()
}

// Len reports the number of completed keys currently held.
func (d *Dedup) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.len()
}

// Lookup reports whether key has completed, without counting a hit.
func (d *Dedup) Lookup(key string) (digest uint64, done bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, _, ok := d.log.find(key); ok {
		return r.digest, true
	}
	return 0, false
}

func outputBytes(outs map[string][]memctx.Item) int {
	n := 0
	for _, items := range outs {
		for _, it := range items {
			n += len(it.Data)
		}
	}
	return n
}
