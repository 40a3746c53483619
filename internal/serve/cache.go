package serve

import (
	"fmt"
	"os"
	"path/filepath"

	"bitspread/internal/durable"
)

// resultCache is the content-addressed result store: one file per job ID
// under dir, published with durable.Publish so a crash can never leave a
// half-written result that a restarted daemon would serve. Because job
// IDs hash everything that determines the trajectory, a cache hit is
// exactly as good as a fresh run — byte-identical by the engines'
// determinism contract. A nil cache (no data directory) stores nothing.
type resultCache struct {
	fsys durable.FS
	dir  string
}

// newResultCache creates the cache directory.
func newResultCache(fsys durable.FS, dir string) (*resultCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	return &resultCache{fsys: fsys, dir: dir}, nil
}

// path maps a job ID to its result file. IDs are lowercase hex by
// construction, so the name needs no escaping.
func (c *resultCache) path(id string) string {
	return filepath.Join(c.dir, id+".json")
}

// get returns the cached payload for id, if present.
func (c *resultCache) get(id string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	b, err := os.ReadFile(c.path(id))
	if err != nil {
		return nil, false
	}
	return b, true
}

// put publishes the payload under id.
func (c *resultCache) put(id string, payload []byte) error {
	if c == nil {
		return nil
	}
	return durable.Publish(c.fsys, c.path(id), payload)
}
