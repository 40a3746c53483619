// Package durabletest is a fault-injecting durable.FS for crash-point
// enumeration. An FS runs a program against a real directory and
// counts its crash points: each write, file sync, rename and directory
// sync. Stopped at the k-th, it fails every later mutation, as if the
// process were gone, and can then write out the two directories a
// restart would find:
//
//   - after the process died there, every byte written so far
//     (ProcessDeath);
//   - after the power failed there, only synced bytes under synced
//     directory entries (PowerLoss), optionally with the latest unsynced
//     write kept with its first bytes zeroed, as when its pages reach the
//     disk out of order.
//
// Directories are taken as durable once created; the model covers the
// files in them. Writes append: the programs under test write temp files
// once and logs with O_APPEND.
package durabletest

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"bitspread/internal/durable"
)

// ErrCrashed is what every mutation returns after the stop.
var ErrCrashed = errors.New("durabletest: the process crashed at an earlier crash point")

// inode is one file's contents: what it holds now and what its last
// sync made durable.
type inode struct {
	data, synced []byte
}

// FS is a durable.FS over the real directory root. The zero value is not
// usable; call New.
type FS struct {
	root   string
	stopAt int

	mu     sync.Mutex
	points []string
	// entries maps each path to the file it names now; durable maps it
	// to the file its directory's last sync recorded.
	entries, durable map[string]*inode
	// last is the file of the latest write.
	last *inode
}

// New returns an FS over root that stops after its stopAt-th crash point
// (never, if stopAt is 0). Files already under root count as durable.
func New(root string, stopAt int) (*FS, error) {
	f := &FS{root: root, stopAt: stopAt, entries: map[string]*inode{}, durable: map[string]*inode{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		data, err := os.ReadFile(path)
		n := &inode{data: data, synced: data}
		f.entries[path], f.durable[path] = n, n
		return err
	})
	return f, err
}

// Points lists the crash points passed so far, as "op path".
func (f *FS) Points() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.points...)
}

// Stopped reports whether the FS has reached its stop.
func (f *FS) Stopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stopped()
}

func (f *FS) stopped() bool { return f.stopAt > 0 && len(f.points) >= f.stopAt }

// point runs one crash point's operation unless the FS has stopped.
func (f *FS) point(op, path string, do func() error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped() {
		return ErrCrashed
	}
	if err := do(); err != nil {
		return err
	}
	rel, _ := filepath.Rel(f.root, path)
	f.points = append(f.points, op+" "+rel)
	return nil
}

// node returns the file path names, adding one the model has not seen.
func (f *FS) node(path string) *inode {
	n := f.entries[path]
	if n == nil {
		data, _ := os.ReadFile(path)
		n = &inode{data: data}
		f.entries[path] = n
	}
	return n
}

// OpenFile opens a real file under the model.
func (f *FS) OpenFile(name string, flag int, perm fs.FileMode) (durable.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped() {
		return nil, ErrCrashed
	}
	osf, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	name = filepath.Clean(name)
	n := f.node(name)
	if flag&os.O_TRUNC != 0 {
		n.data = nil
	}
	return &file{File: osf, fs: f, path: name, n: n}, nil
}

// CreateTemp creates a real temp file under the model.
func (f *FS) CreateTemp(dir, pattern string) (durable.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped() {
		return nil, ErrCrashed
	}
	osf, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	n := &inode{}
	f.entries[osf.Name()] = n
	return &file{File: osf, fs: f, path: osf.Name(), n: n}, nil
}

// Rename is a crash point.
func (f *FS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	return f.point("rename", newpath, func() error {
		if err := os.Rename(oldpath, newpath); err != nil {
			return err
		}
		f.entries[newpath] = f.node(oldpath)
		delete(f.entries, oldpath)
		return nil
	})
}

// Remove removes a real file and its entry.
func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped() {
		return ErrCrashed
	}
	delete(f.entries, filepath.Clean(name))
	return os.Remove(name)
}

// SyncDir is a crash point: the entries of dir become durable.
func (f *FS) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	return f.point("syncdir", dir, func() error {
		if err := (durable.OS{}).SyncDir(dir); err != nil {
			return err
		}
		for path := range f.durable {
			if filepath.Dir(path) == dir && f.entries[path] == nil {
				delete(f.durable, path)
			}
		}
		for path, n := range f.entries {
			if filepath.Dir(path) == dir {
				f.durable[path] = n
			}
		}
		return nil
	})
}

// file is a real file whose writes and syncs are crash points.
type file struct {
	*os.File
	fs   *FS
	path string
	n    *inode
}

func (w *file) Write(p []byte) (int, error) {
	var n int
	err := w.fs.point("write", w.path, func() error {
		var err error
		n, err = w.File.Write(p)
		w.n.data = append(w.n.data, p[:n]...)
		w.fs.last = w.n
		return err
	})
	return n, err
}

func (w *file) Sync() error {
	return w.fs.point("sync", w.path, func() error {
		if err := w.File.Sync(); err != nil {
			return err
		}
		w.n.synced = bytes.Clone(w.n.data)
		return nil
	})
}

func (w *file) Truncate(size int64) error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.stopped() {
		return ErrCrashed
	}
	if err := w.File.Truncate(size); err != nil {
		return err
	}
	w.n.data = w.n.data[:min(int(size), len(w.n.data))]
	return nil
}

// ProcessDeath writes into dst the directory a restart finds after the
// process died at the stop: the real directory, every write included.
// Call it once the program under test has released the FS.
func (f *FS) ProcessDeath(dst string) error {
	return filepath.WalkDir(f.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(f.root, path)
		switch {
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		case d.Type().IsRegular():
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
		}
		return nil
	})
}

// Synced returns the bytes of path that every restart state keeps: its
// synced contents, if its entry is durable.
func (f *FS) Synced(path string) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := f.durable[filepath.Clean(path)]; n != nil {
		return bytes.Clone(n.synced)
	}
	return nil
}

// Torn reports whether the latest write is unsynced in a file with a
// durable entry, so PowerLoss with torn set differs from without.
func (f *FS) Torn() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tornFile() != nil
}

func (f *FS) tornFile() *inode {
	n := f.last
	if n == nil || len(n.data) <= len(n.synced) || !bytes.HasPrefix(n.data, n.synced) {
		return nil
	}
	for _, d := range f.durable {
		if d == n {
			return n
		}
	}
	return nil
}

// PowerLoss writes into dst the directory a restart finds after the power
// failed at the stop: each durable entry with its synced bytes. With torn
// set, the file of the latest write keeps that unsynced write too, with
// its first bytes (up to 8, never its last) zeroed.
func (f *FS) PowerLoss(dst string, torn bool) error {
	if err := filepath.WalkDir(f.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(f.root, path)
		return os.MkdirAll(filepath.Join(dst, rel), 0o755)
	}); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	tornFile := f.tornFile()
	for path, n := range f.durable {
		data := n.synced
		if torn && n == tornFile {
			tail := bytes.Clone(n.data[len(n.synced):])
			clear(tail[:min(8, len(tail)-1)])
			data = append(bytes.Clone(n.synced), tail...)
		}
		rel, _ := filepath.Rel(f.root, path)
		if err := os.WriteFile(filepath.Join(dst, rel), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
