//go:build unix

package journal

import "syscall"

// allocChunk maps n bytes of anonymous memory for a keyLog chunk, off
// the GC heap. If the mapping fails it falls back to the heap.
func allocChunk(n int) (mem []byte, mapped bool) {
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n), false
	}
	return mem, true
}

// freeChunk unmaps a mapped chunk; a heap chunk is the GC's.
func freeChunk(c logChunk) {
	if !c.mapped {
		return
	}
	if err := syscall.Munmap(c.mem); err != nil {
		// Only a mapping allocChunk did not make can fail to unmap.
		panic("journal: unmap dedup log chunk: " + err.Error())
	}
}
