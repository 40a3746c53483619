// Package durable puts state on disk so that it survives both the death
// of the process and the loss of power. It has two primitives:
//
//   - Publish replaces a whole file atomically: temp file, write, Sync,
//     Close, rename, then a Sync of the directory.
//   - Log is an append-only file of JSON lines under an exclusive lock:
//     one write(2) per record, an fsync when asked, and one rule for a
//     torn final record (Scan).
//
// Every mutation goes through an FS. OS is the real one; a test can pass
// a fault-injecting FS that stops the program at each write, sync, rename
// and directory sync and writes out what a restart would find there
// (internal/durable/durabletest).
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// FS is the filesystem every durable write goes through.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes the entries of dir durable: the files created,
	// renamed into or removed from it since its last sync.
	SyncDir(dir string) error
}

// File is an open file of an FS.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Close() error
	Sync() error
	Truncate(size int64) error
	Name() string
	Fd() uintptr
}

// OS is the real filesystem: each method is its os counterpart.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return file(os.OpenFile(name, flag, perm))
}

func (OS) CreateTemp(dir, pattern string) (File, error) { return file(os.CreateTemp(dir, pattern)) }

// file keeps a failed open's nil *os.File from becoming a non-nil File.
func file(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to sync
	return d.Sync()
}

// Publish atomically replaces path with data. After a crash path holds
// either its old bytes or all of data; once Publish returns, data
// survives power loss. The temp file starts with a dot and ends in
// random digits, so no lookup by name or by extension glob (`*.bsvm`
// matches dot-files too) ever sees it.
func Publish(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: publish %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		//bitlint:errsink best-effort temp cleanup on a path that already returns the publish error; readers never see the temp name
		_ = fsys.Remove(tmp.Name())
		return fmt.Errorf("durable: publish %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: publish %s: sync directory: %w", path, err)
	}
	return nil
}

// ErrTorn marks a final record that a crash cut short: Scan reports it,
// and OpenLog and sim.MergeJournals drop the record.
var ErrTorn = errors.New("truncated final line")

// Scan passes each newline-terminated line of data to decode, skipping
// empty lines, and returns the length of the prefix it accepted. Every
// record is written with its newline in one write, so a final line that
// lacks its newline or that decode rejects was never acknowledged: Scan
// stops at its first byte and returns an error wrapping ErrTorn. A line
// that decode rejects anywhere else is corruption, and Scan returns it
// as a plain error.
func Scan(data []byte, decode func(line []byte) error) (int, error) {
	off := 0
	for n := 1; off < len(data); n++ {
		end := bytes.IndexByte(data[off:], '\n')
		if end < 0 {
			return off, fmt.Errorf("%w %d (%d bytes): no newline", ErrTorn, n, len(data)-off)
		}
		line, next := data[off:off+end], off+end+1
		if len(line) > 0 {
			if err := decode(line); err != nil {
				if next < len(data) {
					return 0, fmt.Errorf("line %d corrupt: %w", n, err)
				}
				return off, fmt.Errorf("%w %d (%d bytes): %v", ErrTorn, n, len(line), err)
			}
		}
		off = next
	}
	return off, nil
}

// Log is an append-only file of JSON lines, held under an exclusive lock
// for its whole life. It is safe for concurrent use; a nil *Log records
// nothing.
type Log struct {
	mu    sync.Mutex
	f     File
	fsync bool
	// err latches the first failed append: the bytes it left behind can
	// only be a torn final record while nothing is appended after them.
	err error
}

// OpenLog opens the log at path, creating it if needed, and takes its
// lock before it reads or changes a byte: a second opener fails with an
// error naming the holder's PID. With replay nil the log is emptied.
// Otherwise each record is passed to replay in order (see Scan), and a
// torn final record is reported through logf (if non-nil) and cut off
// the file, so that appends never land behind it. With fsync set, every
// Append is synced before it returns, and creating the file syncs its
// directory.
func OpenLog(fsys FS, path string, fsync bool, replay func(line []byte) error, logf func(string, ...any)) (_ *Log, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	created := errors.Is(err, fs.ErrNotExist)
	if created {
		f, err = fsys.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close() // error-path cleanup; the caller needs err
		}
	}()
	if err := lock(f, path); err != nil {
		return nil, err
	}
	if created && fsync {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			return nil, fmt.Errorf("durable: sync directory of %s: %w", path, err)
		}
	}
	var data []byte
	valid := 0
	if replay != nil {
		if data, err = io.ReadAll(f); err != nil {
			return nil, fmt.Errorf("durable: read %s: %w", path, err)
		}
		valid, err = Scan(data, replay)
		if err != nil && !errors.Is(err, ErrTorn) {
			return nil, fmt.Errorf("durable: %s: %w", path, err)
		}
		if err != nil && logf != nil {
			logf("durable: %s: dropping %v", path, err)
		}
	}
	if replay == nil || valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			return nil, fmt.Errorf("durable: cut %s at %d bytes: %w", path, valid, err)
		}
	}
	return &Log{f: f, fsync: fsync}, nil
}

// Append writes v as one JSON line, in one write, and on a log opened
// with fsync syncs it before returning.
func (l *Log) Append(v any) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("durable: encode: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.err != nil:
		return l.err
	case l.f == nil:
		return errors.New("durable: append to a closed log")
	}
	_, err = l.f.Write(append(line, '\n'))
	if err == nil && l.fsync {
		err = l.f.Sync()
	}
	if err != nil {
		l.err = fmt.Errorf("durable: append to %s: %w", l.f.Name(), err)
	}
	return l.err
}

// Close releases the file and its lock.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
