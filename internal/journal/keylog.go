package journal

import (
	"encoding/binary"
	"hash/maphash"
)

// logChunkBytes is the size of the chunks a keyLog appends records to;
// a record larger than that gets a chunk of its own.
const logChunkBytes = 64 << 10

// keyLog holds a Dedup table's completed keys: an append-only log of
// records in chunks, and a pointer-free index over it. Chunks come
// from allocChunk, off the GC heap where the platform allows, so the
// garbage collector neither scans the log nor counts it toward its
// heap goal.
//
// Records get sequence numbers from 1 in append order; the live ones
// are [first, next). Eviction is FIFO, so a chunk is released once the
// oldest live record lies past it. A record is
//
//	digest    8 bytes, little endian: the outcome digest
//	prev      8 bytes, little endian: the sequence number of the
//	          previous record whose key has the same hash, 0 if none
//	key len   uvarint
//	reply len uvarint: 0 when only the digest is kept
//	key       the key's bytes
//	reply     the packOutputs bytes
//
// The index maps a key's hash to the sequence number of the newest
// record with that hash; older ones chain through prev, and a lookup
// compares key bytes along the chain until it reaches a record older
// than first. keyLog is not safe for concurrent use; Dedup's mutex
// guards it.
type keyLog struct {
	seed  maphash.Seed
	mask  uint64            // applied to every hash
	index map[uint64]uint64 // key hash -> newest record's sequence number
	// pos is a ring: record seq sits at pos[seq&(len(pos)-1)], and
	// len(pos) is a power of two.
	pos         []recordPos
	first, next uint64
	// chunks holds the live records, oldest first; the last one is
	// being appended to, up to used bytes. Chunk ids count up from 0
	// and wrap: chunks[i] has id firstChunk+i.
	chunks     []logChunk
	firstChunk uint32
	used       int
}

// recordPos is where a record starts: a chunk id and an offset in it.
type recordPos struct{ chunk, off uint32 }

type logChunk struct {
	mem    []byte
	mapped bool // from the operating system, not the GC heap
}

// logRecord is a record read back from the log. key and reply alias
// the log, so they are valid only until the log next changes.
type logRecord struct {
	digest, prev uint64
	key, reply   []byte
}

func newKeyLog(hashMask uint64) *keyLog {
	return &keyLog{seed: maphash.MakeSeed(), mask: hashMask, index: make(map[uint64]uint64), first: 1, next: 1}
}

func (l *keyLog) len() int { return int(l.next - l.first) }

// chain names the records a key's hash leads to: the hash, and the
// sequence number of the newest record with it (0 if none) when find
// looked.
type chain struct{ hash, head uint64 }

// find returns key's live record, and key's chain for an add that
// follows with no change to the log in between.
func (l *keyLog) find(key string) (logRecord, chain, bool) {
	h := maphash.String(l.seed, key) & l.mask
	head := l.index[h]
	for s := head; s >= l.first; {
		r := l.record(s)
		if string(r.key) == key {
			return r, chain{}, true
		}
		s = r.prev
	}
	return logRecord{}, chain{hash: h, head: head}, false
}

func (l *keyLog) record(seq uint64) logRecord {
	p := l.pos[seq&uint64(len(l.pos)-1)]
	b := l.chunks[p.chunk-l.firstChunk].mem[p.off:]
	r := logRecord{digest: binary.LittleEndian.Uint64(b), prev: binary.LittleEndian.Uint64(b[8:])}
	b = b[16:]
	k, n := binary.Uvarint(b)
	b = b[n:]
	o, n := binary.Uvarint(b)
	b = b[n:]
	r.key, r.reply = b[:k], b[k:k+o]
	return r
}

// add appends a record for key, which must not be live, first evicting
// the oldest records so that at most max stay live. c is the chain
// find returned for key. The head it names stays the record to chain
// to even if add evicts it: evict drops the index slot exactly when it
// names the evicted record, and lookups stop at records older than
// first, so a stale head ends the chain as 0 would.
func (l *keyLog) add(c chain, key string, digest uint64, reply []byte, max int) {
	for l.len() >= max {
		l.evict()
	}
	need := 16 + uvarintLen(len(key)) + uvarintLen(len(reply)) + len(key) + len(reply)
	if len(l.chunks) == 0 || need > len(l.chunks[len(l.chunks)-1].mem)-l.used {
		l.newChunk(need)
	}
	if l.len() == len(l.pos) {
		l.growRing()
	}
	active := len(l.chunks) - 1
	b := l.chunks[active].mem[l.used:l.used:len(l.chunks[active].mem)]
	b = binary.LittleEndian.AppendUint64(b, digest)
	b = binary.LittleEndian.AppendUint64(b, c.head)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = binary.AppendUvarint(b, uint64(len(reply)))
	b = append(b, key...)
	_ = append(b, reply...)
	l.pos[l.next&uint64(len(l.pos)-1)] = recordPos{chunk: l.firstChunk + uint32(active), off: uint32(l.used)}
	l.index[c.hash] = l.next
	l.next++
	l.used += need
	l.releaseChunks()
}

// evict drops the oldest live record. The index keeps its hash only if
// a newer record has it; chains stop at records older than first, so
// nothing needs unlinking.
func (l *keyLog) evict() {
	r := l.record(l.first)
	if h := maphash.Bytes(l.seed, r.key) & l.mask; l.index[h] == l.first {
		delete(l.index, h)
	}
	l.first++
}

// releaseChunks frees the chunks before the oldest live record's.
func (l *keyLog) releaseChunks() {
	keep := l.pos[l.first&uint64(len(l.pos)-1)].chunk
	for l.firstChunk != keep {
		freeChunk(l.chunks[0])
		l.chunks[0] = logChunk{} // let the GC have a heap chunk
		l.chunks = l.chunks[1:]
		l.firstChunk++
	}
}

func (l *keyLog) newChunk(need int) {
	size := max(need, logChunkBytes)
	mem, mapped := allocChunk(size)
	l.chunks = append(l.chunks, logChunk{mem: mem, mapped: mapped})
	l.used = 0
}

// growRing doubles the position ring, keeping every live record's
// position.
func (l *keyLog) growRing() {
	pos := make([]recordPos, max(2*len(l.pos), 16))
	for s := l.first; s < l.next; s++ {
		pos[s&uint64(len(pos)-1)] = l.pos[s&uint64(len(l.pos)-1)]
	}
	l.pos = pos
}

// offHeapBytes reports the bytes of the chunks that are not on the GC
// heap.
func (l *keyLog) offHeapBytes() int {
	n := 0
	for _, c := range l.chunks {
		if c.mapped {
			n += len(c.mem)
		}
	}
	return n
}

// free releases every chunk. It runs once the owning Dedup is
// unreachable, so nothing reads the log afterwards.
func (l *keyLog) free() {
	for _, c := range l.chunks {
		freeChunk(c)
	}
	l.chunks = nil
}
