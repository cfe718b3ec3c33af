// Command imagepipeline runs the §7.6 compute-intensive application as
// a full cloud-native pipeline: QOI images live in an S3-style object
// store; a composition lists them, fetches each over HTTP, transcodes
// QOI→PNG in one sandboxed instance per image (via the dlibc-style
// file SDK), and PUTs the PNGs back to the store.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"dandelion"
	"dandelion/internal/model/services"
	"dandelion/internal/qoiimg"
)

func main() {
	n := flag.Int("images", 6, "number of images to process")
	flag.Parse()

	// Upload source images.
	store := services.NewObjectStore()
	srv, err := services.StartObjectStore(store)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < *n; i++ {
		img := qoiimg.TestImage(96+8*i, 64)
		store.Put("images", fmt.Sprintf("img%02d.qoi", i), qoiimg.Encode(img))
	}

	p, err := dandelion.New(dandelion.Options{ComputeEngines: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown()

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	count := *n
	// List: form one GET per image.
	must(p.RegisterFunction(dandelion.ComputeFunc{Name: "List", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		out := dandelion.Set{Name: "Requests"}
		for i := 0; i < count; i++ {
			key := fmt.Sprintf("img%02d.qoi", i)
			out.Items = append(out.Items, dandelion.Item{
				Name: key,
				Data: dandelion.HTTPRequest("GET", srv.URL()+"/images/"+key, nil, nil),
			})
		}
		return []dandelion.Set{out}, nil
	}}))
	// Compress: one instance per fetched image, through the file SDK.
	must(p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Compress",
		Go: dandelion.FileFunc(0, func(fs *dandelion.FS) error {
			names, err := fs.ReadDir("/in/Image")
			if err != nil {
				return err
			}
			for _, name := range names {
				raw, err := fs.ReadFile("/in/Image/" + name)
				if err != nil {
					return err
				}
				resp, err := dandelion.ParseHTTPResponse(raw)
				if err != nil {
					return err
				}
				if resp.Status != 200 {
					return fmt.Errorf("fetch failed: %d", resp.Status)
				}
				pngData, err := qoiimg.ToPNG(resp.Body)
				if err != nil {
					return err
				}
				// Emit a PUT request that stores the PNG.
				put := dandelion.HTTPRequest("PUT",
					srv.URL()+"/pngs/"+name+".png",
					map[string]string{"Content-Type": "image/png"}, pngData)
				if err := fs.WriteFile("/out/Puts/"+name, put); err != nil {
					return err
				}
			}
			return nil
		}),
	}))
	// Check: verify every PUT succeeded.
	must(p.RegisterFunction(dandelion.ComputeFunc{Name: "Check", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		okCount := 0
		for _, s := range in {
			for _, it := range s.Items {
				resp, err := dandelion.ParseHTTPResponse(it.Data)
				if err != nil {
					return nil, err
				}
				if resp.Status == 201 {
					okCount++
				}
			}
		}
		return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
			{Name: "summary", Data: []byte(fmt.Sprintf("stored %d PNGs", okCount))},
		}}}, nil
	}}))

	if _, err := p.RegisterCompositionText(`
composition Pipeline(Start) => Result {
    List(x = all Start) => (gets = Requests);
    HTTP(Request = each gets) => (images = Response);
    Compress(Image = each images) => (puts = Puts);
    HTTP(Request = each puts) => (stored = Response);
    Check(x = all stored) => (Result = Out);
}`); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "Pipeline", Inputs: map[string][]dandelion.Item{
		"Start": {{Name: "go", Data: []byte("1")}},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s in %v\n", out["Result"][0].Data, time.Since(start))

	// Show the stored artifacts.
	for i := 0; i < *n; i++ {
		key := fmt.Sprintf("img%02d.qoi.png", i)
		if data, ok := store.Get("pngs", key); ok {
			fmt.Printf("  pngs/%s: %d bytes\n", key, len(data))
		} else {
			log.Fatalf("missing pngs/%s", key)
		}
	}
}
