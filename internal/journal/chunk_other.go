//go:build !unix

package journal

// allocChunk takes a keyLog chunk from the GC heap: this platform has
// no anonymous mapping the log uses.
func allocChunk(n int) (mem []byte, mapped bool) { return make([]byte, n), false }

// freeChunk leaves a heap chunk to the GC.
func freeChunk(logChunk) {}
