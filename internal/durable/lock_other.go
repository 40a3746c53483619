//go:build !unix

package durable

// lock is a no-op where flock(2) is unavailable: a log keeps one writer
// by convention on such platforms.
func lock(f File, path string) error { return nil }
