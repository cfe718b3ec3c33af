package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"unicode/utf8"
)

// DecodeBatchJSON decodes a JSON POST /invoke-batch/ body. It gives the
// value and the error that json.NewDecoder(bytes.NewReader(body)).Decode
// gives for a []BatchRequest, and no decoded value aliases body, so the
// caller may reuse body as soon as it returns.
//
// The compact form that json.Marshal and json.Encoder emit for
// []BatchRequest is scanned in one pass without reflection:
//
//	[{"inputs":{"<set>":[{"name":…,"key":…,"data":"<base64>"}]},"key":…}]
//
// with the omitempty fields optional and one trailing newline allowed.
// Each item's data is base64-decoded straight from the body into a
// buffer of its exact size, and names and keys are copied out. Any
// other body — escapes, whitespace, unknown or case-variant field
// names, a duplicate set, null, a missing data field, trailing bytes —
// is decoded by encoding/json from the same bytes.
func DecodeBatchJSON(body []byte) ([]BatchRequest, error) {
	if reqs, ok := scanBatchJSON(body); ok {
		return reqs, nil
	}
	var reqs []BatchRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&reqs)
	return reqs, err
}

// scanBatchJSON decodes body if it is in the compact form; ok is false
// for any other body.
func scanBatchJSON(body []byte) (reqs []BatchRequest, ok bool) {
	s := batchScanner{b: body}
	if !s.lit("[") {
		return nil, false
	}
	reqs = []BatchRequest{}
	if !s.lit("]") {
		for {
			r, ok := s.request()
			if !ok {
				return nil, false
			}
			reqs = append(reqs, r)
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return nil, false
			}
		}
	}
	s.lit("\n")
	return reqs, s.i == len(body)
}

// batchScanner walks a body; each method consumes one production and
// reports whether the body continued with it.
type batchScanner struct {
	b []byte
	i int
}

// lit consumes tok.
func (s *batchScanner) lit(tok string) bool {
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// request consumes {"inputs":{…}} or {"inputs":{…},"key":"…"}.
func (s *batchScanner) request() (r BatchRequest, ok bool) {
	if !s.lit(`{"inputs":{`) {
		return r, false
	}
	r.Inputs = map[string][]Item{}
	if !s.lit("}") {
		for {
			set, ok := s.str()
			if !ok || !s.lit(":[") {
				return r, false
			}
			if _, dup := r.Inputs[string(set)]; dup {
				return r, false
			}
			items := []Item{}
			if !s.lit("]") {
				for {
					it, ok := s.item()
					if !ok {
						return r, false
					}
					items = append(items, it)
					if s.lit("]") {
						break
					}
					if !s.lit(",") {
						return r, false
					}
				}
			}
			r.Inputs[string(set)] = items
			if s.lit("}") {
				break
			}
			if !s.lit(",") {
				return r, false
			}
		}
	}
	if s.lit(`,"key":`) {
		key, ok := s.str()
		if !ok {
			return r, false
		}
		r.Key = string(key)
	}
	return r, s.lit("}")
}

// item consumes {"name":"…","key":"…","data":"…"}, name and key
// optional.
func (s *batchScanner) item() (it Item, ok bool) {
	if !s.lit("{") {
		return it, false
	}
	if s.lit(`"name":`) {
		name, ok := s.str()
		if !ok || !s.lit(",") {
			return it, false
		}
		it.Name = string(name)
	}
	if s.lit(`"key":`) {
		key, ok := s.str()
		if !ok || !s.lit(",") {
			return it, false
		}
		it.Key = string(key)
	}
	if !s.lit(`"data":`) {
		return it, false
	}
	it.Data, ok = s.data()
	return it, ok && s.lit("}")
}

// str consumes a string that needs no unquoting — valid UTF-8 with no
// escape and no control byte — and returns its bytes, which alias the
// body.
func (s *batchScanner) str() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	ascii := true
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			if !ascii && !utf8.Valid(v) {
				return nil, false
			}
			s.i = j + 1
			return v, true
		case c < 0x20 || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// canonicalBase64 is the base64 json.Marshal writes: standard, padded,
// with zero pad bits. encoding/json also accepts non-zero pad bits, so
// such a body takes encoding/json.
var canonicalBase64 = base64.StdEncoding.Strict()

// data consumes a padded standard base64 string and decodes it into a
// new buffer of exactly the decoded size.
func (s *batchScanner) data() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		return nil, false
	}
	src := s.b[s.i : s.i+end]
	// base64 skips \r and \n, which JSON forbids raw in a string.
	if len(src)%4 != 0 || bytes.IndexByte(src, '\n') >= 0 || bytes.IndexByte(src, '\r') >= 0 {
		return nil, false
	}
	size := len(src) / 4 * 3
	for k := len(src) - 1; k >= 0 && k >= len(src)-2 && src[k] == '='; k-- {
		size--
	}
	out := make([]byte, size)
	if n, err := canonicalBase64.Decode(out, src); err != nil || n != size {
		return nil, false
	}
	s.i += end + 1
	return out, true
}
