// Package qoiimg implements the QOI ("Quite OK Image") format — decoder
// and encoder — plus the QOI→PNG compression compute function used as
// the compute-intensive application in §7.6 of the paper (an 18 kB QOI
// image transcoded to PNG).
//
// The QOI format is specified at https://qoiformat.org: a 14-byte header
// followed by run-length, index, diff, luma, and literal chunks, closed
// by a 7×0x00 + 0x01 end marker.
package qoiimg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"sync"
)

// Format errors.
var (
	ErrBadMagic  = errors.New("qoiimg: bad magic")
	ErrBadHeader = errors.New("qoiimg: malformed header")
	ErrTruncated = errors.New("qoiimg: truncated data")
	ErrBadEnd    = errors.New("qoiimg: missing end marker")
)

const (
	opRGB   = 0xFE
	opRGBA  = 0xFF
	opIndex = 0x00 // 2-bit tag 00
	opDiff  = 0x40 // 2-bit tag 01
	opLuma  = 0x80 // 2-bit tag 10
	opRun   = 0xC0 // 2-bit tag 11

	maxRun = 62 // longest run one opRun byte encodes
)

var endMarker = [8]byte{0, 0, 0, 0, 0, 0, 0, 1}

type pixel struct{ r, g, b, a uint8 }

func hashPixel(p pixel) int {
	return (int(p.r)*3 + int(p.g)*5 + int(p.b)*7 + int(p.a)*11) % 64
}

// Decode parses a QOI image into an *image.NRGBA.
func Decode(data []byte) (*image.NRGBA, error) {
	if len(data) < 14 {
		return nil, ErrTruncated
	}
	if string(data[0:4]) != "qoif" {
		return nil, ErrBadMagic
	}
	w := binary.BigEndian.Uint32(data[4:8])
	h := binary.BigEndian.Uint32(data[8:12])
	channels := data[12]
	colorspace := data[13]
	if w == 0 || h == 0 || w > 1<<16 || h > 1<<16 {
		return nil, fmt.Errorf("%w: dimensions %dx%d", ErrBadHeader, w, h)
	}
	if channels != 3 && channels != 4 {
		return nil, fmt.Errorf("%w: channels %d", ErrBadHeader, channels)
	}
	if colorspace > 1 {
		return nil, fmt.Errorf("%w: colorspace %d", ErrBadHeader, colorspace)
	}
	// One op byte encodes at most a 62-pixel run, so the body between
	// the header and the end marker bounds the pixel count. Checking it
	// before allocating keeps a few bytes from asking for 16 GiB.
	npx := int(w) * int(h)
	if npx > maxRun*(len(data)-len(endMarker)-14) {
		return nil, fmt.Errorf("%w: %dx%d pixels in %d bytes", ErrTruncated, w, h, len(data))
	}

	img := image.NewNRGBA(image.Rect(0, 0, int(w), int(h)))
	var index [64]pixel
	cur := pixel{0, 0, 0, 255}
	pos := 14
	px := 0
	for px < npx {
		if pos >= len(data) {
			return nil, ErrTruncated
		}
		b1 := data[pos]
		pos++
		switch {
		case b1 == opRGB:
			if pos+3 > len(data) {
				return nil, ErrTruncated
			}
			cur.r, cur.g, cur.b = data[pos], data[pos+1], data[pos+2]
			pos += 3
		case b1 == opRGBA:
			if pos+4 > len(data) {
				return nil, ErrTruncated
			}
			cur = pixel{data[pos], data[pos+1], data[pos+2], data[pos+3]}
			pos += 4
		case b1&0xC0 == opIndex:
			cur = index[b1&0x3F]
		case b1&0xC0 == opDiff:
			cur.r += (b1>>4)&0x03 - 2
			cur.g += (b1>>2)&0x03 - 2
			cur.b += b1&0x03 - 2
		case b1&0xC0 == opLuma:
			if pos >= len(data) {
				return nil, ErrTruncated
			}
			b2 := data[pos]
			pos++
			vg := (b1 & 0x3F) - 32
			cur.g += vg
			cur.r += vg - 8 + (b2>>4)&0x0F
			cur.b += vg - 8 + b2&0x0F
		case b1&0xC0 == opRun:
			run := int(b1&0x3F) + 1
			for i := 0; i < run && px < npx; i++ {
				setPix(img, px, cur)
				px++
			}
			index[hashPixel(cur)] = cur
			continue
		}
		index[hashPixel(cur)] = cur
		setPix(img, px, cur)
		px++
	}
	if pos+8 > len(data) || !bytes.Equal(data[pos:pos+8], endMarker[:]) {
		return nil, ErrBadEnd
	}
	return img, nil
}

func setPix(img *image.NRGBA, i int, p pixel) {
	off := i * 4
	img.Pix[off] = p.r
	img.Pix[off+1] = p.g
	img.Pix[off+2] = p.b
	img.Pix[off+3] = p.a
}

func getPix(img *image.NRGBA, i int) pixel {
	off := i * 4
	return pixel{img.Pix[off], img.Pix[off+1], img.Pix[off+2], img.Pix[off+3]}
}

// Encode serializes an image to QOI with 4 channels, sRGB colorspace.
func Encode(src image.Image) []byte {
	b := src.Bounds()
	img, ok := src.(*image.NRGBA)
	if !ok || img.Stride != b.Dx()*4 || b.Min != (image.Point{}) {
		img = image.NewNRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				img.Set(x-b.Min.X, y-b.Min.Y, src.At(x, y))
			}
		}
	}
	w, h := b.Dx(), b.Dy()
	out := make([]byte, 0, w*h/2+32)
	out = append(out, 'q', 'o', 'i', 'f')
	out = binary.BigEndian.AppendUint32(out, uint32(w))
	out = binary.BigEndian.AppendUint32(out, uint32(h))
	out = append(out, 4, 0)

	var index [64]pixel
	prev := pixel{0, 0, 0, 255}
	run := 0
	npx := w * h
	for i := 0; i < npx; i++ {
		cur := getPix(img, i)
		if cur == prev {
			run++
			if run == maxRun || i == npx-1 {
				out = append(out, byte(opRun|(run-1)))
				run = 0
			}
			continue
		}
		if run > 0 {
			out = append(out, byte(opRun|(run-1)))
			run = 0
		}
		hi := hashPixel(cur)
		switch {
		case index[hi] == cur:
			out = append(out, byte(opIndex|hi))
		case cur.a == prev.a:
			dr := int8(cur.r - prev.r)
			dg := int8(cur.g - prev.g)
			db := int8(cur.b - prev.b)
			drg := int8(dr - dg)
			dbg := int8(db - dg)
			switch {
			case dr >= -2 && dr <= 1 && dg >= -2 && dg <= 1 && db >= -2 && db <= 1:
				out = append(out, byte(opDiff|byte(dr+2)<<4|byte(dg+2)<<2|byte(db+2)))
			case dg >= -32 && dg <= 31 && drg >= -8 && drg <= 7 && dbg >= -8 && dbg <= 7:
				out = append(out, byte(opLuma|byte(dg+32)), byte(byte(drg+8)<<4|byte(dbg+8)))
			default:
				out = append(out, opRGB, cur.r, cur.g, cur.b)
			}
		default:
			out = append(out, opRGBA, cur.r, cur.g, cur.b, cur.a)
		}
		index[hi] = cur
		prev = cur
	}
	out = append(out, endMarker[:]...)
	return out
}

// pngEncoder is png.Encode's default encoder with its per-call state —
// the zlib compressor, row buffers and bufio writer — kept in a pool,
// the standard library's own mechanism for reusing it. The compression
// level stays the default, so the bytes are png.Encode's.
var pngEncoder = png.Encoder{BufferPool: new(encoderPool)}

type encoderPool struct{ p sync.Pool }

func (e *encoderPool) Get() *png.EncoderBuffer {
	b, _ := e.p.Get().(*png.EncoderBuffer)
	return b
}

func (e *encoderPool) Put(b *png.EncoderBuffer) { e.p.Put(b) }

// pngOut holds the buffers PNGs are encoded into before the exactly
// sized copy ToPNG returns; one grown past maxPooledPNG is dropped.
var pngOut = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledPNG = 1 << 20

// ToPNG transcodes a QOI image to PNG — the compute-intensive workload
// of §7.6.
func ToPNG(qoiData []byte) ([]byte, error) {
	img, err := Decode(qoiData)
	if err != nil {
		return nil, err
	}
	buf := pngOut.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledPNG {
			pngOut.Put(buf)
		}
	}()
	if err := pngEncoder.Encode(buf, img); err != nil {
		return nil, fmt.Errorf("qoiimg: png encode: %w", err)
	}
	return bytes.Clone(buf.Bytes()), nil
}

// TestImage synthesizes a deterministic RGBA test image with gradients
// and blocks; sized so its QOI encoding lands near the paper's ~18 kB
// input at the default 96x64.
func TestImage(w, h int) *image.NRGBA {
	img := image.NewNRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := uint8((x * 255) / max(1, w-1))
			g := uint8((y * 255) / max(1, h-1))
			b := uint8(((x ^ y) * 7) & 0xFF)
			a := uint8(255)
			if (x/8+y/8)%2 == 0 {
				b = 200
			}
			img.Set(x, y, color.NRGBA{R: r, G: g, B: b, A: a})
		}
	}
	return img
}
