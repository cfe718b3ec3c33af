package dandelion_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"dandelion/internal/cluster"
	"dandelion/internal/core"
)

// TestStatsDocExamples holds the JSON examples in docs/STATS.md to the
// structs they document: each example decodes into its struct with no
// unknown field, and every field the struct always serializes (no
// omitempty) appears in it, in the entries of nested arrays too. A
// field renamed or removed in Go fails here, though its name may live
// on elsewhere in the sources.
func TestStatsDocExamples(t *testing.T) {
	doc, err := os.ReadFile("docs/STATS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		heading string
		into    any
	}{
		{"# The `/stats` endpoint", &core.Stats{}},
		{"# The `/stats/cluster` endpoint", &cluster.ClusterStats{}},
	} {
		example, err := jsonBlockAfter(string(doc), c.heading)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(strings.NewReader(example))
		dec.DisallowUnknownFields()
		if err := dec.Decode(c.into); err != nil {
			t.Errorf("%s example: %v", c.heading, err)
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(example), &obj); err != nil {
			t.Fatalf("%s example: %v", c.heading, err)
		}
		checkExampleFields(t, c.heading, reflect.TypeOf(c.into).Elem(), obj)
	}
}

// jsonBlockAfter returns the first ```json block under the heading.
func jsonBlockAfter(doc, heading string) (string, error) {
	i := strings.Index("\n"+doc, "\n"+heading+"\n")
	if i < 0 {
		return "", fmt.Errorf("docs/STATS.md: no heading %q", heading)
	}
	rest := doc[i:]
	j := strings.Index(rest, "```json\n")
	if j < 0 {
		return "", fmt.Errorf("docs/STATS.md: no json example under %q", heading)
	}
	rest = rest[j+len("```json\n"):]
	k := strings.Index(rest, "```")
	if k < 0 {
		return "", fmt.Errorf("docs/STATS.md: unterminated example under %q", heading)
	}
	return rest[:k], nil
}

// checkExampleFields reports every field of the struct type typ that
// serializes unconditionally but is absent from the example object
// obj, descending into arrays of structs.
func checkExampleFields(t *testing.T, path string, typ reflect.Type, obj map[string]any) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		v, ok := obj[name]
		if !ok {
			if !strings.Contains(opts, "omitempty") {
				t.Errorf("%s example: field %s missing", path, name)
			}
			continue
		}
		if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct {
			items, _ := v.([]any)
			for j, it := range items {
				entry, _ := it.(map[string]any)
				checkExampleFields(t, fmt.Sprintf("%s %s[%d]", path, name, j), f.Type.Elem(), entry)
			}
		}
	}
}
