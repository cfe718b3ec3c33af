package dandelion_test

import (
	"bytes"
	"context"
	"fmt"
	"image/png"
	"strings"
	"testing"

	"dandelion"
	"dandelion/internal/qoiimg"
)

// TestFileFuncSDK exercises the dlibc-style file interface: inputs
// appear as files under /in, outputs are harvested from /out.
func TestFileFuncSDK(t *testing.T) {
	p := newPlatform(t, dandelion.Options{})
	err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Concat",
		Go: dandelion.FileFunc(0, func(fs *dandelion.FS) error {
			names, err := fs.ReadDir("/in/Parts")
			if err != nil {
				return err
			}
			var b strings.Builder
			for _, n := range names {
				data, err := fs.ReadFile("/in/Parts/" + n)
				if err != nil {
					return err
				}
				b.Write(data)
			}
			return fs.WriteFile("/out/Out/joined", []byte(b.String()))
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition C(Parts) => Result {
    Concat(Parts = all Parts) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "C", Inputs: map[string][]dandelion.Item{
		"Parts": {
			{Name: "a", Data: []byte("dan")},
			{Name: "b", Data: []byte("de")},
			{Name: "c", Data: []byte("lion")},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out["Result"][0].Data); got != "dandelion" {
		t.Fatalf("joined = %q", got)
	}
}

func TestFileFuncWriteOutsideOutFails(t *testing.T) {
	p := newPlatform(t, dandelion.Options{})
	p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Bad",
		Go: dandelion.FileFunc(0, func(fs *dandelion.FS) error {
			return fs.WriteFile("/etc/passwd", []byte("nope"))
		}),
	})
	p.RegisterCompositionText(`
composition B(In) => Result {
    Bad(x = all In) => (Result = Out);
}`)
	_, err := p.Invoke(context.Background(), dandelion.Request{Composition: "B", Inputs: map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte("x")}}}})
	if err == nil || !strings.Contains(err.Error(), "/out") {
		t.Fatalf("err = %v, want write confinement", err)
	}
}

// TestImageCompressionApplication runs the §7.6 compute-intensive app
// for real: QOI images fan out one per instance, each instance
// transcodes to PNG through the file SDK.
func TestImageCompressionApplication(t *testing.T) {
	p := newPlatform(t, dandelion.Options{ComputeEngines: 4})
	err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Compress",
		Go: dandelion.FileFunc(0, func(fs *dandelion.FS) error {
			names, err := fs.ReadDir("/in/Image")
			if err != nil {
				return err
			}
			for _, n := range names {
				qoi, err := fs.ReadFile("/in/Image/" + n)
				if err != nil {
					return err
				}
				pngData, err := qoiimg.ToPNG(qoi)
				if err != nil {
					return err
				}
				if err := fs.WriteFile("/out/PNGs/"+n+".png", pngData); err != nil {
					return err
				}
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition CompressAll(Images) => Result {
    Compress(Image = each Images) => (Result = PNGs);
}`); err != nil {
		t.Fatal(err)
	}

	var items []dandelion.Item
	for i := 0; i < 4; i++ {
		img := qoiimg.TestImage(48+8*i, 32)
		items = append(items, dandelion.Item{
			Name: fmt.Sprintf("img%d", i),
			Data: qoiimg.Encode(img),
		})
	}
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "CompressAll", Inputs: map[string][]dandelion.Item{"Images": items}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["Result"]) != 4 {
		t.Fatalf("outputs = %d, want 4", len(out["Result"]))
	}
	for i, it := range out["Result"] {
		img, err := png.Decode(bytes.NewReader(it.Data))
		if err != nil {
			t.Fatalf("item %d: not a PNG: %v", i, err)
		}
		if img.Bounds().Dy() != 32 {
			t.Fatalf("item %d: bounds %v", i, img.Bounds())
		}
	}
}
