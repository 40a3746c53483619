package durable_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bitspread/internal/durable"
	"bitspread/internal/durable/durabletest"
)

// TestPublishAtEveryCrashPoint: stopped at each of Publish's crash
// points, every restart state holds the old bytes or all of the new, and
// the new once Publish has returned.
func TestPublishAtEveryCrashPoint(t *testing.T) {
	for k := 1; ; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "result.json")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		fsys, err := durabletest.New(dir, k)
		if err != nil {
			t.Fatal(err)
		}
		returned := durable.Publish(fsys, path, []byte("new")) == nil
		points := fsys.Points()
		if !fsys.Stopped() {
			if k != 5 || !returned {
				t.Fatalf("Publish passed %d crash points %v, want 4", len(points), points)
			}
			return
		}
		for state, restore := range map[string]func(string) error{
			"process death": fsys.ProcessDeath,
			"power loss":    func(dst string) error { return fsys.PowerLoss(dst, false) },
		} {
			dst := t.TempDir()
			if err := restore(dst); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dst, "result.json"))
			if err != nil || (string(got) != "old" && string(got) != "new") || (returned && string(got) != "new") {
				t.Errorf("stop at %s, %s: result.json = %q, %v (Publish returned: %v)", points[k-1], state, got, err, returned)
			}
		}
	}
}

// TestLogRefusesAppendsAfterAFailedOne: once an append fails, its bytes
// may sit torn at the end of the file, so every later append fails too
// and the fragment stays the final line.
func TestLogRefusesAppendsAfterAFailedOne(t *testing.T) {
	dir := t.TempDir()
	// Crash points: the directory sync that creating the log makes, then
	// the first append's write; its sync fails.
	fsys, err := durabletest.New(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := durable.OpenLog(fsys, filepath.Join(dir, "log.jsonl"), true, func([]byte) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first := l.Append([]byte(`{"a":1}`))
	if !errors.Is(first, durabletest.ErrCrashed) {
		t.Fatalf("first append: %v, want the failed sync", first)
	}
	if err := l.Append([]byte(`{"a":2}`)); err != first {
		t.Fatalf("append after a failed one: %v, want the first failure %v", err, first)
	}
}
