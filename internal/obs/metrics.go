// Package obs is the observability layer of the simulation stack: a
// registry of counters, gauges and fixed-bucket histograms with an
// allocation-free hot path, engine probes that fold structured per-round
// events into that registry, run-level spans exported as JSONL (next to
// sim.Journal checkpoint lines), a Prometheus-style text exposition of a
// registry snapshot, and the unified pprof flag set of the CLIs.
//
// The package is zero-dependency (stdlib only, no imports from the rest
// of the repo) and sits deliberately OUTSIDE the deterministic core
// (internal/engine, internal/sim, internal/fault, …): probes and spans
// observe a run, they never feed back into it. Wall-clock reads are
// confined to this package and carry //bitlint:wallclock justifications;
// every value derived from them is metadata (span timestamps, durations),
// never simulation state — the engines stay pure functions of
// (seed, Config, Shards) with or without instrumentation.
//
// Everything is nil-safe by design: a nil *Registry hands out nil
// metrics, and every method of a nil *Counter/*Gauge/*Histogram/*Metrics
// is a no-op. Uninstrumented runs therefore pay exactly one pointer
// nil-check per event — the engines' `if cfg.Probe != nil` guard — and
// nothing else.
package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// cacheLine is the unit of false sharing. Each counter, gauge and
// histogram bucket array fills whole lines of its own, so metrics written
// by different goroutines — the private engine metrics of bitspreadd's
// workers, say — never share one.
const cacheLine = 64

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe on a nil receiver (no-ops) and for
// concurrent use.
type Counter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// take zeroes the counter and returns the count it held (0 on a nil
// receiver).
func (c *Counter) take() int64 {
	if c == nil {
		return 0
	}
	return c.v.Swap(0)
}

// Gauge is a last-value metric. The zero value is ready to use; all
// methods are safe on a nil receiver (no-ops) and for concurrent use.
type Gauge struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last stored value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution metric: bounds are the
// inclusive upper bucket bounds in increasing order, and every Observe
// lands in the first bucket whose bound is >= the value, or in the
// implicit +Inf overflow bucket. Observing is a linear scan over a
// handful of bounds plus two atomic adds — no allocation, no locking.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Int64
}

// Observe records one int64-valued sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && float64(v) > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// fold zeroes src's buckets and sum and adds what they held to h's.
// Both must have the same bounds; a nil h discards src's counts.
func (h *Histogram) fold(src *Histogram) {
	if src == nil {
		return
	}
	for i := range src.counts {
		if n := src.counts[i].Swap(0); h != nil {
			h.counts[i].Add(n)
		}
	}
	if n := src.sum.Swap(0); h != nil {
		h.sum.Add(n)
	}
}

// Registry names and owns a set of metrics. Lookups (Counter, Gauge,
// Histogram) lock and may allocate — they belong in setup code, never in
// a round loop; callers hold on to the returned metric and hit only its
// atomic hot path. A nil *Registry is the disabled registry: it hands
// out nil metrics, whose methods are all no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// checkName panics on names the text exposition could not represent.
// Metric names are programmer-supplied constants, so a bad one is a bug,
// not an input error.
func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper bucket bounds on first use (later calls reuse the existing
// buckets and ignore bounds). A nil registry returns a nil (no-op)
// histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	checkName(name)
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds not increasing: %v", name, bounds))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1, wholeLines(len(bounds)+1)),
		}
		r.hists[name] = h
	}
	return h
}

// wholeLines rounds a count of 8-byte cells up to whole cache lines.
func wholeLines(cells int) int {
	const perLine = cacheLine / 8
	return (cells + perLine - 1) / perLine * perLine
}

// WriteText writes a Prometheus-style text exposition snapshot of every
// registered metric, sorted by name so output is deterministic. A nil
// registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n",
			name, name, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n",
			name, name, r.gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.hists) {
		if err := writeHistogram(w, name, r.hists[name]); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram with cumulative le-labelled
// buckets, the Prometheus convention.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, cum)
	return err
}

// sortedKeys returns the map's keys in sorted order; exposition output
// must not depend on map iteration order.
func sortedKeys[V any](m map[string]*V) []string {
	keys := make([]string, 0, len(m))
	//bitlint:maporder keys are sorted immediately below; iteration order cannot leak
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteSnapshot writes the registry's text exposition to the file at
// path, with "-" meaning the provided stdout writer. A nil registry (or
// empty path) writes nothing — the CLIs call this unconditionally.
func WriteSnapshot(reg *Registry, path string, stdout io.Writer) error {
	if reg == nil || path == "" {
		return nil
	}
	if path == "-" {
		return reg.WriteText(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
