package vfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"dandelion/internal/memctx"
)

func newWithInputs(t *testing.T) *FS {
	t.Helper()
	fs, err := FromInputs([]memctx.Set{
		{Name: "args", Items: []memctx.Item{
			{Name: "token", Data: []byte("secret")},
			{Name: "url", Key: "k1", Data: []byte("http://x")},
		}},
		{Name: "cfg", Items: []memctx.Item{{Name: "flag", Data: []byte("1")}}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestInputsMountedReadOnly(t *testing.T) {
	fs := newWithInputs(t)
	data, err := fs.ReadFile("/in/args/token")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "secret" {
		t.Fatalf("read = %q", data)
	}
	if err := fs.WriteFile("/in/args/token", []byte("x")); !errors.Is(err, ErrOutsideIO) {
		t.Fatalf("write to /in err = %v", err)
	}
	if err := fs.Remove("/in/args/token"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("remove input err = %v", err)
	}
}

func TestWriteReadOutput(t *testing.T) {
	fs := New(0)
	if err := fs.WriteFile("/out/result/html", []byte("<html>")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/out/result/html")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "<html>" {
		t.Fatalf("read = %q", got)
	}
	if n, _ := fs.Stat("/out/result/html"); n != 6 {
		t.Fatalf("stat = %d, want 6", n)
	}
}

func TestWriteOutsideOutRejected(t *testing.T) {
	fs := New(0)
	for _, p := range []string{"/tmp/x", "/scratch", "/outx/a/b"} {
		if err := fs.WriteFile(p, []byte("x")); !errors.Is(err, ErrOutsideIO) {
			t.Errorf("write %s err = %v, want ErrOutsideIO", p, err)
		}
	}
	// Missing set folder or item name.
	for _, p := range []string{"/out/justset"} {
		if err := fs.WriteFile(p, nil); !errors.Is(err, ErrBadPath) {
			t.Errorf("write %s err = %v, want ErrBadPath", p, err)
		}
	}
}

func TestBadPaths(t *testing.T) {
	fs := New(0)
	for _, p := range []string{"", "relative/path", "/out/../etc/passwd"} {
		if _, err := fs.ReadFile(p); !errors.Is(err, ErrBadPath) {
			// /out/../etc cleans to /etc — allowed shape, but must not exist.
			if p == "/out/../etc/passwd" && errors.Is(err, ErrNotExist) {
				continue
			}
			t.Errorf("ReadFile(%q) err = %v", p, err)
		}
	}
}

func TestQuota(t *testing.T) {
	fs := New(10)
	if err := fs.WriteFile("/out/s/a", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/out/s/b", make([]byte, 3)); !errors.Is(err, ErrQuota) {
		t.Fatalf("quota err = %v", err)
	}
	// Overwrite with smaller content frees space.
	if err := fs.WriteFile("/out/s/a", make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if fs.Used() != 2 {
		t.Fatalf("used = %d, want 2", fs.Used())
	}
	if err := fs.WriteFile("/out/s/b", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestRemove(t *testing.T) {
	fs := New(0)
	fs.WriteFile("/out/s/a", []byte("abc"))
	if err := fs.Remove("/out/s/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/out/s/a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("read removed err = %v", err)
	}
	if err := fs.Remove("/out/s/a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove err = %v", err)
	}
	if fs.Used() != 0 {
		t.Fatalf("used = %d after remove", fs.Used())
	}
}

func TestReadDir(t *testing.T) {
	fs := newWithInputs(t)
	fs.WriteFile("/out/res/z", nil)
	fs.WriteFile("/out/res/a", nil)

	names, err := fs.ReadDir("/in")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"args/", "cfg/"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("ReadDir(/in) = %v, want %v", names, want)
	}
	names, err = fs.ReadDir("/out/res")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "z" {
		t.Fatalf("ReadDir(/out/res) = %v", names)
	}
	if _, err := fs.ReadDir("/in/args/token"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("ReadDir(file) err = %v", err)
	}
	empty, err := fs.ReadDir("/nowhere")
	if err != nil || len(empty) != 0 {
		t.Fatalf("ReadDir missing dir = %v, %v", empty, err)
	}
}

func TestOutputsHarvest(t *testing.T) {
	fs := newWithInputs(t)
	fs.WriteFileKeyed("/out/reqs/r2", []byte("b"), "srv2")
	fs.WriteFileKeyed("/out/reqs/r1", []byte("a"), "srv1")
	fs.WriteFile("/out/log/summary", []byte("ok"))

	sets := fs.Outputs()
	if len(sets) != 2 {
		t.Fatalf("outputs = %d sets, want 2", len(sets))
	}
	if sets[0].Name != "log" || sets[1].Name != "reqs" {
		t.Fatalf("set order = %s,%s", sets[0].Name, sets[1].Name)
	}
	reqs := sets[1]
	if len(reqs.Items) != 2 || reqs.Items[0].Name != "r1" || reqs.Items[0].Key != "srv1" {
		t.Fatalf("items = %+v", reqs.Items)
	}
	// Inputs never leak into outputs.
	for _, s := range sets {
		if s.Name == "args" || s.Name == "cfg" {
			t.Fatal("input set leaked into outputs")
		}
	}
}

func TestOutputsNestedItemNames(t *testing.T) {
	fs := New(0)
	fs.WriteFile("/out/s/dir/leaf", []byte("x"))
	sets := fs.Outputs()
	if len(sets) != 1 || sets[0].Items[0].Name != "dir/leaf" {
		t.Fatalf("nested output = %+v", sets)
	}
}

func TestOpenReader(t *testing.T) {
	fs := New(0)
	fs.WriteFile("/out/s/f", []byte("stream me"))
	r, err := fs.Open("/out/s/f")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "stream me" {
		t.Fatalf("read = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close err = %v", err)
	}
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v", err)
	}
}

func TestDuplicateInputItem(t *testing.T) {
	_, err := FromInputs([]memctx.Set{
		{Name: "s", Items: []memctx.Item{{Name: "a"}, {Name: "a"}}},
	}, 0)
	if !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate input err = %v", err)
	}
}

// Property: WriteFile then Outputs round-trips content and key for any
// well-formed set/item name.
func TestOutputRoundTripProperty(t *testing.T) {
	f := func(content []byte, key string) bool {
		fs := New(1 << 24)
		if len(content) > 1<<20 {
			content = content[:1<<20]
		}
		if err := fs.WriteFileKeyed("/out/set/item", content, key); err != nil {
			return false
		}
		sets := fs.Outputs()
		if len(sets) != 1 || len(sets[0].Items) != 1 {
			return false
		}
		it := sets[0].Items[0]
		return bytes.Equal(it.Data, content) && it.Key == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: inputs mounted via FromInputs read back byte-identical.
func TestInputRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		fs, err := FromInputs([]memctx.Set{{Name: "s", Items: []memctx.Item{{Name: "i", Data: data}}}}, 0)
		if err != nil {
			return false
		}
		got, err := fs.ReadFile("/in/s/i")
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// A mount stays under /in/<set>/: a set or item name that climbs out of
// its folder is refused, so a client cannot plant an input where the
// function's outputs are harvested.
func TestMountConfinedToSet(t *testing.T) {
	for _, s := range []memctx.Set{
		{Name: "In", Items: []memctx.Item{{Name: "../../out/Res/x", Data: []byte("forged")}}},
		{Name: "In", Items: []memctx.Item{{Name: "../Other/x"}}},
		{Name: "In", Items: []memctx.Item{{Name: ""}}},
		{Name: "../out/Res", Items: []memctx.Item{{Name: "x"}}},
		{Name: "", Items: []memctx.Item{{Name: "x"}}},
		{Name: "a/b", Items: []memctx.Item{{Name: "x"}}},
	} {
		fs, err := FromInputs([]memctx.Set{s}, 0)
		if !errors.Is(err, ErrBadPath) {
			var outs []memctx.Set
			if fs != nil {
				outs = fs.Outputs()
			}
			t.Errorf("mount set %q item %q: err = %v, outputs %+v; want ErrBadPath",
				s.Name, s.Items[0].Name, err, outs)
		}
	}
	// A nested item name is a file in a folder of its set.
	fs, err := FromInputs([]memctx.Set{{Name: "In", Items: []memctx.Item{{Name: "dir/leaf", Data: []byte("x")}}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile("/in/In/dir/leaf"); err != nil || string(got) != "x" {
		t.Fatalf("nested input = %q, %v", got, err)
	}
}

// A path is a file or a directory, never both.
func TestFileOrDirectory(t *testing.T) {
	fs := New(0)
	if err := fs.WriteFile("/out/S/a", []byte("file")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/out/S/a/b", []byte("below a file")); !errors.Is(err, ErrNotDir) {
		t.Errorf("write below a file: err = %v, want ErrNotDir", err)
	}
	if err := fs.WriteFile("/out/T/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/out/T/d", []byte("over a directory")); !errors.Is(err, ErrIsDir) {
		t.Errorf("write over a directory: err = %v, want ErrIsDir", err)
	}
	for _, dir := range []string{"/out/S", "/out/T/d", "/out"} {
		if _, err := fs.ReadFile(dir); !errors.Is(err, ErrIsDir) {
			t.Errorf("ReadFile(%s): err = %v, want ErrIsDir", dir, err)
		}
		if _, err := fs.Open(dir); !errors.Is(err, ErrIsDir) {
			t.Errorf("Open(%s): err = %v, want ErrIsDir", dir, err)
		}
	}
	var names []string
	for _, s := range fs.Outputs() {
		for _, it := range s.Items {
			names = append(names, s.Name+"/"+it.Name)
		}
	}
	if len(names) != 2 || names[0] != "S/a" || names[1] != "T/d/f" {
		t.Errorf("outputs = %v, want [S/a T/d/f]", names)
	}
	// Removing the last file below a directory frees its name.
	if err := fs.Remove("/out/T/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/out/T/d", []byte("now a file")); err != nil {
		t.Errorf("write after the directory emptied: %v", err)
	}
	// Inputs obey the same rule, in either order.
	for _, items := range [][]memctx.Item{
		{{Name: "a"}, {Name: "a/b"}},
		{{Name: "a/b"}, {Name: "a"}},
	} {
		if _, err := FromInputs([]memctx.Set{{Name: "In", Items: items}}, 0); !errors.Is(err, ErrNotDir) && !errors.Is(err, ErrIsDir) {
			t.Errorf("mount %q then %q: err = %v, want ErrNotDir or ErrIsDir", items[0].Name, items[1].Name, err)
		}
	}
}

// A name may contain ".." as a substring: only a ".." path element
// climbs, and a cleaned rooted path has none. Confinement is checked on
// the cleaned path, so a write that climbs out of /out is still refused.
func TestDotDotInsideANameIsPlain(t *testing.T) {
	names := []string{"v1..2", "a..", "..b"}
	var items []memctx.Item
	for _, n := range names {
		items = append(items, memctx.Item{Name: n, Data: []byte("in:" + n)})
	}
	fs, err := FromInputs([]memctx.Set{{Name: "In", Items: items}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if got, err := fs.ReadFile("/in/In/" + n); err != nil || string(got) != "in:"+n {
			t.Errorf("ReadFile(/in/In/%s) = %q, %v", n, got, err)
		}
		if err := fs.WriteFile("/out/S/"+n, []byte("out:"+n)); err != nil {
			t.Errorf("WriteFile(/out/S/%s): %v", n, err)
		}
		if got, err := fs.ReadFile("/out/S/" + n); err != nil || string(got) != "out:"+n {
			t.Errorf("ReadFile(/out/S/%s) = %q, %v", n, got, err)
		}
	}
	if err := fs.WriteFile("/out/S/../../in/In/x", []byte("x")); !errors.Is(err, ErrOutsideIO) {
		t.Errorf("write climbing out of /out: err = %v, want ErrOutsideIO", err)
	}
}
