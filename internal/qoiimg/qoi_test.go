package qoiimg

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := TestImage(64, 48)
	enc := Encode(img)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Pix, img.Pix) {
		t.Fatal("round trip pixel mismatch")
	}
}

func TestEncodeDecodeRandomNoise(t *testing.T) {
	// Noise exercises the RGB/RGBA literal paths (no runs, few matches).
	rng := rand.New(rand.NewSource(5))
	img := image.NewNRGBA(image.Rect(0, 0, 31, 17))
	for i := range img.Pix {
		img.Pix[i] = byte(rng.Intn(256))
	}
	dec, err := Decode(Encode(img))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Pix, img.Pix) {
		t.Fatal("noise round trip mismatch")
	}
}

func TestEncodeSolidColorUsesRuns(t *testing.T) {
	img := image.NewNRGBA(image.Rect(0, 0, 100, 100))
	for y := 0; y < 100; y++ {
		for x := 0; x < 100; x++ {
			img.Set(x, y, color.NRGBA{R: 10, G: 20, B: 30, A: 255})
		}
	}
	enc := Encode(img)
	// 10k identical pixels must compress to well under 1 kB.
	if len(enc) > 1024 {
		t.Fatalf("solid color encoded to %d bytes", len(enc))
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Pix, img.Pix) {
		t.Fatal("solid round trip mismatch")
	}
}

func TestEncodeAlphaTransitions(t *testing.T) {
	img := image.NewNRGBA(image.Rect(0, 0, 8, 1))
	for x := 0; x < 8; x++ {
		img.Set(x, 0, color.NRGBA{R: byte(x), G: 0, B: 0, A: byte(40 * x)})
	}
	dec, err := Decode(Encode(img))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Pix, img.Pix) {
		t.Fatal("alpha round trip mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	img := TestImage(8, 8)
	good := Encode(img)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", []byte("qoif"), ErrTruncated},
		{"magic", append([]byte("nope"), good[4:]...), ErrBadMagic},
		{"truncated body", good[:len(good)-12], ErrTruncated},
		{"missing end", good[:len(good)-8], ErrBadEnd},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	bad := append([]byte{}, good...)
	bad[12] = 7 // channels
	if _, err := Decode(bad); !errors.Is(err, ErrBadHeader) {
		t.Errorf("bad channels err = %v", err)
	}
	bad = append([]byte{}, good...)
	bad[13] = 9 // colorspace
	if _, err := Decode(bad); !errors.Is(err, ErrBadHeader) {
		t.Errorf("bad colorspace err = %v", err)
	}
	bad = append([]byte{}, good...)
	bad[4], bad[5], bad[6], bad[7] = 0, 0, 0, 0 // zero width
	if _, err := Decode(bad); !errors.Is(err, ErrBadHeader) {
		t.Errorf("zero width err = %v", err)
	}
}

// One op byte encodes at most a 62-pixel run, so a header declaring
// more than 62 pixels per body byte cannot be valid; Decode must say so
// before allocating the image.
func TestDecodeRejectsPixelsBeyondData(t *testing.T) {
	header := func(w, h uint32, body int) []byte {
		b := append([]byte("qoif"), byte(w>>24), byte(w>>16), byte(w>>8), byte(w),
			byte(h>>24), byte(h>>16), byte(h>>8), byte(h), 4, 0)
		for i := 0; i < body; i++ {
			b = append(b, opRun|61)
		}
		return append(b, endMarker[:]...)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"65536x65536, no body", header(1<<16, 1<<16, 0)},
		{"63 pixels in one byte", header(63, 1, 1)},
		{"65536x65536 in 1000 bytes", header(1<<16, 1<<16, 1000)},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", c.name, err)
		}
	}
	// 62 pixels in one run byte is the densest valid image.
	img, err := Decode(header(62, 1, 1))
	if err != nil || img.Bounds().Dx() != 62 {
		t.Fatalf("62-pixel run: %v", err)
	}
}

func TestToPNG(t *testing.T) {
	img := TestImage(96, 64)
	qoi := Encode(img)
	pngData, err := ToPNG(qoi)
	if err != nil {
		t.Fatal(err)
	}
	back, err := png.Decode(bytes.NewReader(pngData))
	if err != nil {
		t.Fatal(err)
	}
	if back.Bounds().Dx() != 96 || back.Bounds().Dy() != 64 {
		t.Fatalf("png bounds = %v", back.Bounds())
	}
	// Spot-check a pixel survives the full transcode.
	r0, g0, b0, a0 := img.At(10, 10).RGBA()
	r1, g1, b1, a1 := back.At(10, 10).RGBA()
	if r0 != r1 || g0 != g1 || b0 != b1 || a0 != a1 {
		t.Fatal("pixel mismatch after QOI->PNG")
	}
	if _, err := ToPNG([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted by ToPNG")
	}
}

func TestTestImageSizeNearPaper(t *testing.T) {
	// §7.6 uses an 18 kB QOI image; ours should be the same order of
	// magnitude so the compute intensity is comparable.
	enc := Encode(TestImage(96, 64))
	if len(enc) < 4<<10 || len(enc) > 64<<10 {
		t.Fatalf("test image encodes to %d bytes, want tens of kB", len(enc))
	}
}

func TestEncodeNonNRGBAInput(t *testing.T) {
	gray := image.NewGray(image.Rect(0, 0, 10, 10))
	for i := range gray.Pix {
		gray.Pix[i] = byte(i * 3)
	}
	dec, err := Decode(Encode(gray))
	if err != nil {
		t.Fatal(err)
	}
	r, _, _, _ := dec.At(3, 3).RGBA()
	wr, _, _, _ := gray.At(3, 3).RGBA()
	if r != wr {
		t.Fatal("gray conversion mismatch")
	}
}

// Property: encode/decode round-trips random small images exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		w := int(wRaw%32) + 1
		h := int(hRaw%32) + 1
		rng := rand.New(rand.NewSource(seed))
		img := image.NewNRGBA(image.Rect(0, 0, w, h))
		for i := range img.Pix {
			// Mix of smooth and random regions to hit all op codes.
			if rng.Intn(3) == 0 {
				img.Pix[i] = byte(rng.Intn(256))
			} else if i >= 4 {
				img.Pix[i] = img.Pix[i-4] + byte(rng.Intn(5)) - 2
			}
		}
		dec, err := Decode(Encode(img))
		return err == nil && bytes.Equal(dec.Pix, img.Pix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// raceEnabled is set by race_test.go: the race detector drops pooled
// objects at random, so allocation bounds only hold without it.
var raceEnabled bool

// ToPNG encodes through a pooled encoder; its bytes must be
// png.Encode's, at every size and from goroutines sharing the pool.
func TestToPNGMatchesPNGEncode(t *testing.T) {
	type size struct{ w, h int }
	sizes := []size{{1, 1}, {32, 32}, {96, 64}, {257, 3}}
	qoi := make([][]byte, len(sizes))
	want := make([][]byte, len(sizes))
	for i, s := range sizes {
		qoi[i] = Encode(TestImage(s.w, s.h))
		img, err := Decode(qoi[i])
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := png.Encode(&buf, img); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	const workers, rounds = 8, 12
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(sizes)
				got, err := ToPNG(qoi[i])
				if err == nil && !bytes.Equal(got, want[i]) {
					err = fmt.Errorf("%dx%d: ToPNG differs from png.Encode", sizes[i].w, sizes[i].h)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// A warm 32×32 transcode allocates the decoded image and the returned
// PNG, not a compressor: png.Encode builds an ~850 KB one per call.
func TestWarmToPNGAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoders at random")
	}
	qoi := Encode(TestImage(32, 32))
	if _, err := ToPNG(qoi); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := ToPNG(qoi); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("ToPNG 32x32: %.0f allocs, %d B per call", allocs, perRun)
	if perRun >= 16<<10 {
		t.Fatalf("ToPNG 32x32 allocates %d B per call, want < 16 KiB", perRun)
	}
}

func BenchmarkToPNG(b *testing.B) {
	qoi := Encode(TestImage(32, 32))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ToPNG(qoi); err != nil {
			b.Fatal(err)
		}
	}
}
