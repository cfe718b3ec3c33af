package workloads

// HasAVX2 reports whether MakeBlob takes the 16-lane AVX2 fill here.
var HasAVX2 = hasAVX2

// MakeBlobPortable is MakeBlob through the 4-lane Go fill, the only
// path off amd64, so its tests cover it on a machine that never
// selects it.
func MakeBlobPortable(n int, seed uint64) []byte {
	b := make([]byte, n)
	if seed == 0 {
		seed = fnvOffset
	}
	fillLanes4(b, seed)
	return b
}
