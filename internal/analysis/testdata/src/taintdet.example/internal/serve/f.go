// Fixture: taint into the serve-layer crash-safety and wire sinks.
package serve

import (
	"io"
	"os"
	"strconv"

	"bitspread/internal/durable"
)

type resultCache struct{ dir string }

func (c *resultCache) put(id string, payload []byte) error { return nil }

func writeJSON(w io.Writer, code int, v any) {}

func record(l *durable.Log) {
	host, _ := os.Hostname()
	l.Append(host) // want "os.Hostname flows into durable log append"
}

func publish(c *resultCache, payload []byte) {
	id := strconv.Itoa(os.Getpid())
	c.put(id, payload) // want "os.Getpid flows into result-cache publish"
}

func respond(w io.Writer, m map[string]int) {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	writeJSON(w, 200, ks) // want "map iteration order flows into wire payload"
}

func suppressed(l *durable.Log) {
	host, _ := os.Hostname()
	//bitlint:taintdet hostname is operator-facing lease metadata, never merged bytes
	l.Append(host)
}

func clean(l *durable.Log, shard int) {
	l.Append(strconv.Itoa(shard))
}
