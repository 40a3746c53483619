//go:build unix

package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// lock takes an exclusive flock on the log for the life of its file
// handle, so two processes can never interleave appends. The holder
// leaves its PID in a `<path>.lock` sidecar, which a second opener names
// in its error. The kernel releases the lock when the holder's descriptor
// closes, so a killed holder never wedges the log, and a stale sidecar is
// only ever read while a live lock exists.
func lock(f File, path string) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if !errors.Is(err, syscall.EWOULDBLOCK) {
			return fmt.Errorf("durable: lock %s: %w", path, err)
		}
		holder := "another process"
		if b, rerr := os.ReadFile(path + ".lock"); rerr == nil && len(bytes.TrimSpace(b)) > 0 {
			holder = "pid " + string(bytes.TrimSpace(b))
		}
		return fmt.Errorf("durable: %s is locked by %s (flock held; a second writer would corrupt it)", path, holder)
	}
	// Best-effort holder advertisement; the lock itself is the guard.
	_ = os.WriteFile(path+".lock", []byte(strconv.Itoa(os.Getpid())+"\n"), 0o644)
	return nil
}
