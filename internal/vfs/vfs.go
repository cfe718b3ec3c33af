// Package vfs implements the userspace in-memory virtual filesystem that
// Dandelion's dlibc/dlibc++ expose to compute functions (§4.1 of the
// paper).
//
// Input sets appear as read-only folders under /in, with items as files;
// compute functions create outputs as ordinary files under /out/<set>/.
// When the function exits, every file inside an /out folder becomes an
// output item of the corresponding set — no system calls involved.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"

	"dandelion/internal/memctx"
)

// Errors returned by the filesystem. They mirror the error codes dlibc's
// stub syscalls hand back to user code.
var (
	ErrNotExist  = errors.New("vfs: file does not exist")
	ErrReadOnly  = errors.New("vfs: file is read-only")
	ErrIsDir     = errors.New("vfs: path is a directory")
	ErrNotDir    = errors.New("vfs: path is not a directory")
	ErrBadPath   = errors.New("vfs: invalid path")
	ErrClosed    = errors.New("vfs: file already closed")
	ErrQuota     = errors.New("vfs: filesystem quota exceeded")
	ErrExist     = errors.New("vfs: file already exists")
	ErrOutsideIO = errors.New("vfs: writes must be under /out")
)

// FS is one function instance's private filesystem view. It is not safe
// for concurrent use: a compute function is single-threaded by design
// (pure functions do not spawn threads, §3).
type FS struct {
	files map[string]*file // cleaned absolute path -> file
	// dirs counts the files below each directory, so a path is a file
	// or a directory, never both, and a directory is gone with its last
	// file.
	dirs  map[string]int
	quota int
	used  int
}

type file struct {
	data     []byte
	readOnly bool
	key      string
}

// DefaultQuota bounds the total bytes a function may write, standing in
// for the context's memory limit.
const DefaultQuota = 64 << 20

// New creates an empty filesystem with the given byte quota for writes
// (<= 0 selects DefaultQuota).
func New(quota int) *FS {
	if quota <= 0 {
		quota = DefaultQuota
	}
	return &FS{files: map[string]*file{}, dirs: map[string]int{}, quota: quota}
}

// FromInputs builds a filesystem view with each input set mounted
// read-only under /in/<set>/<item>. A set name is one folder, and an
// item must land inside it: a name that leaves /in/<set>/ fails with
// ErrBadPath.
func FromInputs(sets []memctx.Set, quota int) (*FS, error) {
	fs := New(quota)
	for _, s := range sets {
		if s.Name == "" || s.Name == "." || s.Name == ".." || strings.Contains(s.Name, "/") {
			return nil, fmt.Errorf("%w: input set %q", ErrBadPath, s.Name)
		}
		dir := "/in/" + s.Name + "/"
		for _, it := range s.Items {
			p := path.Join(dir, it.Name)
			if !strings.HasPrefix(p, dir) {
				return nil, fmt.Errorf("%w: input item %q of set %q", ErrBadPath, it.Name, s.Name)
			}
			if _, ok := fs.files[p]; ok {
				return nil, fmt.Errorf("%w: %s", ErrExist, p)
			}
			if err := fs.checkFile(p); err != nil {
				return nil, err
			}
			d := make([]byte, len(it.Data))
			copy(d, it.Data)
			fs.put(p, &file{data: d, readOnly: true, key: it.Key})
		}
	}
	return fs, nil
}

// checkFile fails if p may not be a file: with ErrIsDir when p is a
// directory, with ErrNotDir when a folder above p is a file.
func (fs *FS) checkFile(p string) error {
	if fs.dirs[p] > 0 {
		return fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	for d := path.Dir(p); d != "/"; d = path.Dir(d) {
		if _, ok := fs.files[d]; ok {
			return fmt.Errorf("%w: %s", ErrNotDir, d)
		}
	}
	return nil
}

// put stores f at p; a new file is counted in every folder above p.
func (fs *FS) put(p string, f *file) {
	if _, ok := fs.files[p]; !ok {
		for d := path.Dir(p); d != "/"; d = path.Dir(d) {
			fs.dirs[d]++
		}
	}
	fs.files[p] = f
}

// lookup returns the file at the cleaned path c.
func (fs *FS) lookup(c string) (*file, error) {
	f, ok := fs.files[c]
	if !ok {
		if fs.dirs[c] > 0 {
			return nil, fmt.Errorf("%w: %s", ErrIsDir, c)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotExist, c)
	}
	return f, nil
}

// clean resolves an absolute path to its cleaned form. path.Clean of a
// rooted path keeps no ".." element, so a name may contain ".." as a
// substring; confinement is checked on the cleaned path.
func clean(p string) (string, error) {
	if p == "" || !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("%w: %q must be absolute", ErrBadPath, p)
	}
	return path.Clean(p), nil
}

// ReadFile returns a copy of the file's contents.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	c, err := clean(p)
	if err != nil {
		return nil, err
	}
	f, err := fs.lookup(c)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// WriteFile creates or replaces a file under /out. Writes anywhere else
// fail with ErrOutsideIO (inputs are immutable; scratch data belongs in
// function memory, not the FS).
func (fs *FS) WriteFile(p string, data []byte) error {
	return fs.WriteFileKeyed(p, data, "")
}

// WriteFileKeyed is WriteFile with an output key attached; keys drive
// `key`-distributed edges downstream.
func (fs *FS) WriteFileKeyed(p string, data []byte, key string) error {
	c, err := clean(p)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(c, "/out/") {
		return fmt.Errorf("%w: %s", ErrOutsideIO, c)
	}
	// /out/<set>/<item...>: require a set folder and an item name.
	rest := strings.TrimPrefix(c, "/out/")
	if rest == "" || !strings.Contains(rest, "/") {
		return fmt.Errorf("%w: %s must be /out/<set>/<item>", ErrBadPath, p)
	}
	old := 0
	if f, ok := fs.files[c]; ok {
		if f.readOnly {
			return fmt.Errorf("%w: %s", ErrReadOnly, c)
		}
		old = len(f.data)
	} else if err := fs.checkFile(c); err != nil {
		return err
	}
	if fs.used-old+len(data) > fs.quota {
		return fmt.Errorf("%w: %d bytes over %d", ErrQuota, fs.used-old+len(data), fs.quota)
	}
	fs.used += len(data) - old
	d := make([]byte, len(data))
	copy(d, data)
	fs.put(c, &file{data: d, key: key})
	return nil
}

// Remove deletes a writable file.
func (fs *FS) Remove(p string) error {
	c, err := clean(p)
	if err != nil {
		return err
	}
	f, err := fs.lookup(c)
	if err != nil {
		return err
	}
	if f.readOnly {
		return fmt.Errorf("%w: %s", ErrReadOnly, c)
	}
	fs.used -= len(f.data)
	delete(fs.files, c)
	for d := path.Dir(c); d != "/"; d = path.Dir(d) {
		if fs.dirs[d]--; fs.dirs[d] == 0 {
			delete(fs.dirs, d)
		}
	}
	return nil
}

// Stat reports the size of a file.
func (fs *FS) Stat(p string) (int, error) {
	c, err := clean(p)
	if err != nil {
		return 0, err
	}
	f, err := fs.lookup(c)
	if err != nil {
		return 0, err
	}
	return len(f.data), nil
}

// ReadDir lists the immediate children of a directory, sorted. A child
// directory is reported with a trailing slash.
func (fs *FS) ReadDir(dir string) ([]string, error) {
	c, err := clean(dir)
	if err != nil {
		return nil, err
	}
	prefix := c
	if prefix != "/" {
		prefix += "/"
	}
	seen := map[string]bool{}
	var names []string
	for p := range fs.files {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i] + "/"
		}
		if !seen[rest] {
			seen[rest] = true
			names = append(names, rest)
		}
	}
	if len(names) == 0 {
		// Distinguish an existing file from a missing directory.
		if _, ok := fs.files[c]; ok {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, c)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Used reports the bytes currently consumed by writable files.
func (fs *FS) Used() int { return fs.used }

// Outputs harvests every file under /out into output sets, one set per
// immediate folder, items sorted by name. This is the dlibc exit path
// that converts files back to set/item descriptors.
func (fs *FS) Outputs() []memctx.Set {
	bySets := map[string][]memctx.Item{}
	for p, f := range fs.files {
		if !strings.HasPrefix(p, "/out/") {
			continue
		}
		rest := strings.TrimPrefix(p, "/out/")
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			continue
		}
		set, item := rest[:i], rest[i+1:]
		d := make([]byte, len(f.data))
		copy(d, f.data)
		bySets[set] = append(bySets[set], memctx.Item{Name: item, Key: f.key, Data: d})
	}
	names := make([]string, 0, len(bySets))
	for n := range bySets {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]memctx.Set, len(names))
	for i, n := range names {
		items := bySets[n]
		sort.Slice(items, func(a, b int) bool { return items[a].Name < items[b].Name })
		out[i] = memctx.Set{Name: n, Items: items}
	}
	return out
}

// Open returns a sequential reader over a file, implementing io.Reader
// and io.Closer for code written against stream interfaces.
func (fs *FS) Open(p string) (io.ReadCloser, error) {
	data, err := fs.ReadFile(p)
	if err != nil {
		return nil, err
	}
	return &reader{data: data}, nil
}

type reader struct {
	data   []byte
	off    int
	closed bool
}

func (r *reader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, ErrClosed
	}
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *reader) Close() error {
	if r.closed {
		return ErrClosed
	}
	r.closed = true
	return nil
}
