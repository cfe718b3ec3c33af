package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// decodeReference is what DecodeBatchJSON is held to: encoding/json's
// streaming decoder over the whole body.
func decodeReference(body []byte) ([]BatchRequest, error) {
	var reqs []BatchRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&reqs)
	return reqs, err
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkDecode decodes body with DecodeBatchJSON and with the reference
// and fails unless both give the same value and the same error. The
// decoded copy of body is overwritten with 0xAA before the comparison,
// so a value that aliases the body fails too. It reports whether the
// scanner took the body.
func checkDecode(t *testing.T, body []byte) (scanned bool) {
	t.Helper()
	want, wantErr := decodeReference(body)
	b := bytes.Clone(body)
	got, err := DecodeBatchJSON(b)
	for i := range b {
		b[i] = 0xAA
	}
	if errText(err) != errText(wantErr) {
		t.Fatalf("body %q: error %q, encoding/json says %q", body, errText(err), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n got %#v\nwant %#v", body, got, want)
	}
	_, scanned = scanBatchJSON(body)
	return scanned
}

// marshalForm reports whether body is json.Marshal's output (with or
// without json.Encoder's newline) for a value with no null in it and
// no string that needs an escape: the form the scanner must take.
func marshalForm(body []byte) bool {
	reqs, err := decodeReference(body)
	if err != nil || reqs == nil || bytes.IndexByte(body, '\\') >= 0 {
		return false
	}
	for _, r := range reqs {
		if r.Inputs == nil {
			return false
		}
		for _, items := range r.Inputs {
			if items == nil {
				return false
			}
			for _, it := range items {
				if it.Data == nil {
					return false
				}
			}
		}
	}
	m, err := json.Marshal(reqs)
	return err == nil && (bytes.Equal(body, m) || bytes.Equal(body, append(m, '\n')))
}

// imageBody is a body shaped like the two-tenant benchmark's
// foreground request: one 4 KiB image in the Images set, written by
// json.Encoder.
func imageBody() []byte {
	img := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(img)
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode([]BatchRequest{{
		Inputs: map[string][]Item{"Images": {{Name: "img000.qoi", Data: img}}},
	}})
	return buf.Bytes()
}

// randomRequests draws a batch whose names and keys include bytes
// json.Marshal escapes (<>&, a quote, a backslash, invalid UTF-8) and
// bytes it does not (a space, é), and whose data and sets are
// sometimes nil, so the marshalled bodies reach both decode paths.
func randomRequests(rng *rand.Rand) []BatchRequest {
	names := []string{"", "x", "img000.qoi", "a b", "é", "<a&b>", "\xff", `q"`, `b\`}
	pick := func() string { return names[rng.Intn(len(names))] }
	reqs := make([]BatchRequest, rng.Intn(4))
	for i := range reqs {
		if rng.Intn(8) > 0 {
			reqs[i].Inputs = map[string][]Item{}
		}
		for s := rng.Intn(3); s > 0 && reqs[i].Inputs != nil; s-- {
			var items []Item
			if rng.Intn(8) > 0 {
				items = []Item{}
			}
			for n := rng.Intn(4); n > 0; n-- {
				it := Item{Name: pick(), Key: pick()}
				if rng.Intn(8) > 0 {
					it.Data = make([]byte, rng.Intn(10))
					rng.Read(it.Data)
				}
				items = append(items, it)
			}
			reqs[i].Inputs[pick()] = items
		}
		reqs[i].Key = pick()
	}
	return reqs
}

var decodeCases = []struct {
	name, body string
	scan       bool // the scanner takes it; otherwise encoding/json does
}{
	{"empty batch", `[]`, true},
	{"empty batch, encoder newline", "[]\n", true},
	{"image", string(imageBody()), true},
	{"keys, sets and empty values", `[{"inputs":{"":[],"In":[{"name":"a b","key":"k","data":""},{"data":"aGk="}],"é":[{"key":"x","data":"eA=="}]},"key":"r1"},{"inputs":{}}]`, true},
	{"escaped name", `[{"inputs":{"In":[{"name":"\u003ca\u0026b\u003e","data":"aGk="}]}}]`, false},
	{"escaped data", `[{"inputs":{"In":[{"data":"aGk\u003d"}]}}]`, false},
	{"escaped set", `[{"inputs":{"I\n":[]}}]`, false},
	{"whitespace", `[ {"inputs": {"In": [{"data": "aGk="}]}} ]`, false},
	{"leading whitespace", ` []`, false},
	{"unknown field", `[{"inputs":{},"extra":1}]`, false},
	{"unknown item field", `[{"inputs":{"In":[{"name":"x","size":2,"data":"aGk="}]}}]`, false},
	{"case-variant fields", `[{"Inputs":{"In":[{"Name":"x","DATA":"aGk="}]},"KEY":"k"}]`, false},
	{"fields out of order", `[{"key":"k","inputs":{"In":[{"data":"aGk=","name":"x"}]}}]`, false},
	{"duplicate set", `[{"inputs":{"In":[{"data":"aGk="}],"In":[{"data":"eA=="}]}}]`, false},
	{"duplicate key", `[{"inputs":{},"key":"a","key":"b"}]`, false},
	{"top-level null", `null`, false},
	{"null inputs", `[{"inputs":null}]`, false},
	{"null set", `[{"inputs":{"In":null}}]`, false},
	{"null data", `[{"inputs":{"In":[{"name":"x","data":null}]}}]`, false},
	{"missing data", `[{"inputs":{"In":[{"name":"x"}]}}]`, false},
	{"missing inputs", `[{"key":"k"}]`, false},
	{"data not a string", `[{"inputs":{"In":[{"data":5}]}}]`, false},
	{"unpadded base64", `[{"inputs":{"In":[{"data":"aGk"}]}}]`, false},
	{"non-zero pad bits", `[{"inputs":{"In":[{"data":"aGl="}]}}]`, false},
	{"pad inside data", `[{"inputs":{"In":[{"data":"aG==aGk="}]}}]`, false},
	{"url base64", `[{"inputs":{"In":[{"data":"-_-_"}]}}]`, false},
	{"raw newline in data", "[{\"inputs\":{\"In\":[{\"data\":\"aG\nk=\"}]}}]", false},
	{"raw control byte in name", "[{\"inputs\":{\"In\":[{\"name\":\"a\tb\",\"data\":\"\"}]}}]", false},
	{"invalid UTF-8 name", "[{\"inputs\":{\"In\":[{\"name\":\"\xff\",\"data\":\"\"}]}}]", false},
	{"trailing data", `[]x`, false},
	{"two newlines", "[]\n\n", false},
	{"second value", `[] []`, false},
	{"truncated", `[{"inputs":{"In":[{"data":"aGk=`, false},
	{"empty body", ``, false},
	{"object, not array", `{"inputs":{}}`, false},
	{"array of numbers", `[1,2]`, false},
}

// TestDecodeBatchJSONMatchesEncodingJSON holds both decode paths to
// encoding/json, value and error, and checks which path each body
// takes.
func TestDecodeBatchJSONMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			if scanned := checkDecode(t, []byte(c.body)); scanned != c.scan {
				t.Fatalf("scanner took the body: %v, want %v", scanned, c.scan)
			}
		})
	}
}

// FuzzDecodeBatchJSON: for any body DecodeBatchJSON agrees with
// encoding/json and keeps no reference into the body, and every body
// in json.Marshal's form with nothing to unescape takes the scanner.
func FuzzDecodeBatchJSON(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		b, err := json.Marshal(randomRequests(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if !checkDecode(t, body) && marshalForm(body) {
			t.Fatalf("body %q is in json.Marshal's form but took encoding/json", body)
		}
	})
}

// BenchmarkDecodeBatchJSON decodes the image body with encoding/json
// (what the batch route ran before DecodeBatchJSON) and with the
// scanner DecodeBatchJSON takes for it.
func BenchmarkDecodeBatchJSON(b *testing.B) {
	body := imageBody()
	for _, c := range []struct {
		name   string
		decode func([]byte) ([]BatchRequest, error)
	}{
		{"encoding_json", decodeReference},
		{"scanner", DecodeBatchJSON},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				if _, err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
