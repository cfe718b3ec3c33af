//go:build !amd64

package workloads

// hasAVX2 is false off amd64, so MakeBlob always takes fillLanes4.
const hasAVX2 = false

func fillLanes16(b []byte, seed uint64) (int, uint64) {
	panic("workloads: no 16-lane fill on this GOARCH")
}
