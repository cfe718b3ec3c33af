package ssb

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Chunk wire format: fact-table slices travel between the object store
// and Partial compute functions as little-endian column blocks:
// magic "SSB1", uint32 row count, then the ten int32 columns in
// declaration order.

var chunkMagic = [4]byte{'S', 'S', 'B', '1'}

// ErrBadChunk reports a malformed encoded chunk.
var ErrBadChunk = errors.New("ssb: malformed chunk")

// EncodeChunk serializes a fact-table slice.
func EncodeChunk(l *LineOrders) []byte {
	n := l.Len()
	out := make([]byte, 0, 8+n*BytesPerRow)
	out = append(out, chunkMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	for _, col := range l.columns() {
		for _, v := range col {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
	}
	return out
}

// DecodeChunk parses an encoded fact-table slice.
func DecodeChunk(data []byte) (*LineOrders, error) {
	l := &LineOrders{}
	if _, err := l.decode(data, nil); err != nil {
		return nil, err
	}
	return l, nil
}

// decode parses data into l, whose ten columns become consecutive
// windows of one buffer: buf when its capacity suffices, else a new
// one. It returns the buffer, so a caller can reuse it for the next
// chunk.
func (l *LineOrders) decode(data []byte, buf []int32) ([]int32, error) {
	if len(data) < 8 || data[0] != chunkMagic[0] || data[1] != chunkMagic[1] ||
		data[2] != chunkMagic[2] || data[3] != chunkMagic[3] {
		return buf, fmt.Errorf("%w: bad magic", ErrBadChunk)
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	if n < 0 || 8+n*BytesPerRow != len(data) {
		return buf, fmt.Errorf("%w: %d rows vs %d bytes", ErrBadChunk, n, len(data))
	}
	if cap(buf) < 10*n {
		buf = make([]int32, 10*n)
	}
	buf = buf[:10*n]
	for i := range buf {
		buf[i] = int32(binary.LittleEndian.Uint32(data[8+4*i:]))
	}
	col := func(c int) []int32 { return buf[c*n : (c+1)*n : (c+1)*n] }
	l.OrderKey, l.CustKey, l.PartKey, l.SuppKey, l.OrderDate = col(0), col(1), col(2), col(3), col(4)
	l.Quantity, l.ExtendedPrice, l.Discount, l.Revenue, l.SupplyCost = col(5), col(6), col(7), col(8), col(9)
	return buf, nil
}

func (l *LineOrders) columns() [][]int32 {
	return [][]int32{
		l.OrderKey, l.CustKey, l.PartKey, l.SuppKey, l.OrderDate,
		l.Quantity, l.ExtendedPrice, l.Discount, l.Revenue, l.SupplyCost,
	}
}
