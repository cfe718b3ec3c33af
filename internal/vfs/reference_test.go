package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"path"
	"slices"
	"strings"
	"testing"

	"dandelion/internal/memctx"
)

// refFS is the specification FS is held to: a map from cleaned path to
// file. A directory is never stored; it is any path that a file's path
// continues with a slash.
type refFS struct {
	files       map[string]refFile
	quota, used int
}

type refFile struct {
	data []byte
	ro   bool
}

func refMount(sets []memctx.Set, quota int) (*refFS, error) {
	r := &refFS{files: map[string]refFile{}, quota: quota}
	for _, s := range sets {
		if s.Name == "" || s.Name == "." || s.Name == ".." || strings.Contains(s.Name, "/") {
			return nil, ErrBadPath
		}
		for _, it := range s.Items {
			p := path.Clean("/in/" + s.Name + "/" + it.Name)
			if !strings.HasPrefix(p, "/in/"+s.Name+"/") {
				return nil, ErrBadPath
			}
			if _, ok := r.files[p]; ok {
				return nil, ErrExist
			}
			if err := r.place(p); err != nil {
				return nil, err
			}
			r.files[p] = refFile{data: it.Data, ro: true}
		}
	}
	return r, nil
}

func (r *refFS) isDir(p string) bool {
	for f := range r.files {
		if strings.HasPrefix(f, p+"/") {
			return true
		}
	}
	return false
}

// place says why no new file may be made at p: p is a directory, or a
// folder above p is a file.
func (r *refFS) place(p string) error {
	if r.isDir(p) {
		return ErrIsDir
	}
	for f := range r.files {
		if strings.HasPrefix(p, f+"/") {
			return ErrNotDir
		}
	}
	return nil
}

func (r *refFS) get(p string) (refFile, error) {
	if !strings.HasPrefix(p, "/") {
		return refFile{}, ErrBadPath
	}
	p = path.Clean(p)
	if f, ok := r.files[p]; ok {
		return f, nil
	}
	if r.isDir(p) {
		return refFile{}, ErrIsDir
	}
	return refFile{}, ErrNotExist
}

func (r *refFS) write(p string, data []byte) error {
	if !strings.HasPrefix(p, "/") {
		return ErrBadPath
	}
	p = path.Clean(p)
	if !strings.HasPrefix(p, "/out/") {
		return ErrOutsideIO
	}
	if !strings.Contains(strings.TrimPrefix(p, "/out/"), "/") {
		return ErrBadPath
	}
	old, ok := r.files[p]
	if ok && old.ro {
		return ErrReadOnly
	}
	if err := r.place(p); err != nil {
		return err
	}
	if r.used-len(old.data)+len(data) > r.quota {
		return ErrQuota
	}
	r.used += len(data) - len(old.data)
	r.files[p] = refFile{data: bytes.Clone(data)}
	return nil
}

func (r *refFS) remove(p string) error {
	f, err := r.get(p)
	if err == nil && f.ro {
		err = ErrReadOnly
	}
	if err == nil {
		r.used -= len(f.data)
		delete(r.files, path.Clean(p))
	}
	return err
}

// outputs lists every file under /out/<set>/, sets by name and each
// set's items by name.
func (r *refFS) outputs() []memctx.Set {
	bySet := map[string][]memctx.Item{}
	for _, p := range slices.Sorted(maps.Keys(r.files)) {
		if set, item, ok := strings.Cut(strings.TrimPrefix(p, "/out/"), "/"); ok && strings.HasPrefix(p, "/out/") {
			bySet[set] = append(bySet[set], memctx.Item{Name: item, Data: r.files[p].data})
		}
	}
	var out []memctx.Set
	for _, set := range slices.Sorted(maps.Keys(bySet)) {
		out = append(out, memctx.Set{Name: set, Items: bySet[set]})
	}
	return out
}

// class names the sentinel an error wraps, so the two sides compare by
// error class, not by message.
func class(err error) string {
	if err == nil {
		return "ok"
	}
	for _, e := range []error{ErrNotExist, ErrReadOnly, ErrIsDir, ErrNotDir, ErrBadPath, ErrQuota, ErrExist, ErrOutsideIO} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// script draws a sequence's choices from a byte string, so the fuzzer
// mutates the sequence itself.
type script []byte

func (s *script) pick(n int) int {
	if len(*s) == 0 {
		return 0
	}
	c := int((*s)[0]) % n
	*s = (*s)[1:]
	return c
}

var (
	setNames = []string{"In", "In", "T", "", ".", "..", "a/b"}
	roots    = []string{"/in/In/", "/in/", "/out/S/", "/out/T/", "/out/", "/", "", "/out/S/../../in/In/"}
	elems    = []string{"a", "b", ".", "..", "", "v1..2", "a..", "..b"}
)

// name joins one to three elements, so names hold "/", "." and "..".
func (s *script) name() string {
	parts := make([]string, 1+s.pick(3))
	for i := range parts {
		parts[i] = elems[s.pick(len(elems))]
	}
	return strings.Join(parts, "/")
}

func (s *script) path() string { return roots[s.pick(len(roots))] + s.name() }

func (s *script) data() []byte {
	return bytes.Repeat([]byte{byte('a' + s.pick(26))}, s.pick(7))
}

// diffVFS mounts the script's input sets on an FS and on the reference,
// then applies the script's writes, reads, stats and removes to both
// and compares every result, error class and harvest.
func diffVFS(s script) error {
	const quota = 16
	var sets []memctx.Set
	for range 1 + s.pick(2) {
		set := memctx.Set{Name: setNames[s.pick(len(setNames))]}
		for range s.pick(4) {
			set.Items = append(set.Items, memctx.Item{Name: s.name(), Data: s.data()})
		}
		sets = append(sets, set)
	}
	fs, err := FromInputs(sets, quota)
	ref, rerr := refMount(sets, quota)
	if class(err) != class(rerr) {
		return fmt.Errorf("FromInputs(%s) = %v, reference %v", render(sets), err, rerr)
	}
	if err != nil {
		fs, ref = New(quota), &refFS{files: map[string]refFile{}, quota: quota}
	}
	for step := 0; len(s) > 0; step++ {
		p := s.path()
		var op, got, want string
		switch s.pick(4) {
		case 0:
			d := s.data()
			op = fmt.Sprintf("WriteFile(%q, %q)", p, d)
			got, want = class(fs.WriteFile(p, d)), class(ref.write(p, d))
		case 1:
			op = fmt.Sprintf("ReadFile(%q)", p)
			b, err := fs.ReadFile(p)
			f, rerr := ref.get(p)
			got, want = fmt.Sprintf("%q %s", b, class(err)), fmt.Sprintf("%q %s", f.data, class(rerr))
		case 2:
			op = fmt.Sprintf("Stat(%q)", p)
			n, err := fs.Stat(p)
			f, rerr := ref.get(p)
			got, want = fmt.Sprintf("%d %s", n, class(err)), fmt.Sprintf("%d %s", len(f.data), class(rerr))
		case 3:
			op = fmt.Sprintf("Remove(%q)", p)
			got, want = class(fs.Remove(p)), class(ref.remove(p))
		}
		if got != want {
			return fmt.Errorf("mount %s, step %d: %s = %s, reference %s", render(sets), step, op, got, want)
		}
		got = fmt.Sprintf("%s used=%d", render(fs.Outputs()), fs.Used())
		want = fmt.Sprintf("%s used=%d", render(ref.outputs()), ref.used)
		if got != want {
			return fmt.Errorf("mount %s, step %d: after %s Outputs = %s, reference %s", render(sets), step, op, got, want)
		}
	}
	return nil
}

// render prints sets with their item names and data.
func render(sets []memctx.Set) string {
	var b strings.Builder
	for _, s := range sets {
		fmt.Fprintf(&b, "[%q", s.Name)
		for _, it := range s.Items {
			fmt.Fprintf(&b, " %q=%q", it.Name, it.Data)
		}
		b.WriteString("]")
	}
	return b.String()
}

// TestMatchesReference holds FS to refFS on seeded random scripts.
func TestMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		s := make(script, 256)
		for i := range s {
			s[i] = byte(r.Uint32())
		}
		if err := diffVFS(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzVFS is TestMatchesReference with the fuzzer writing the script.
// A script is cut to its first KiB: the reference scans every file on
// each step, and empty writes cost no quota, so a script's cost grows
// with the square of its length (a 64 KiB one takes ~0.4 s).
func FuzzVFS(f *testing.F) {
	f.Add([]byte("\x00\x02\x05\x00\x02\x10\x00\x03\x02\x01\x02\x03"))
	f.Add([]byte("\x01\x00\x03\x02\x00\x01\x06\x05\x02\x00\x01\x03\x01\x01\x04"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := diffVFS(script(b[:min(len(b), 1024)])); err != nil {
			t.Fatal(err)
		}
	})
}
