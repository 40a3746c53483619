package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans around the calls the benchmark makes into each
// layer; nothing inside the program is instrumented. Spans are kept in
// memory and written out when the run ends. Every method is safe on a nil
// *tracer, which is how untraced operations run.

// spanHeader carries the client span ID from traceTransport to
// traceHandler, so a handler span is parented to the request that caused it.
const spanHeader = "X-Bench-Span"

// span is one finished interval; times are microseconds since the tracer
// started. Parent 0 marks a root, which is always one operation.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// rounds and checkpoints count engine rounds (the engine.Probe side)
	// and journal checkpoints (the sim.Observer side).
	rounds      atomic.Int64
	checkpoints atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end records it.
type spanRef struct {
	tr     *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

func (t *tracer) begin(name string, parent int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{tr: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

func (s spanRef) end() {
	if s.tr == nil {
		return
	}
	t := s.tr
	sp := span{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
		End:    float64(time.Since(t.t0).Nanoseconds()) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// RoundDone, FaultApplied and ShardRound make the tracer an engine.Probe.
func (t *tracer) RoundDone(round, ones, sampled int64) { t.rounds.Add(1) }
func (t *tracer) FaultApplied(round int64)             {}
func (t *tracer) ShardRound(shard int, sampled int64)  {}

// simObserver is the benchmark's sim.Observer: each replica becomes a
// "sim.replica" span under parent, and checkpoints are counted.
type simObserver struct {
	tr     *tracer
	parent int64

	mu   sync.Mutex
	open map[string]spanRef
}

func newSimObserver(tr *tracer, parent int64) *simObserver {
	return &simObserver{tr: tr, parent: parent, open: map[string]spanRef{}}
}

func replicaKey(task string, replica int) string { return task + "#" + strconv.Itoa(replica) }

func (o *simObserver) ReplicaStart(task string, replica int) {
	sp := o.tr.begin("sim.replica", o.parent)
	o.mu.Lock()
	o.open[replicaKey(task, replica)] = sp
	o.mu.Unlock()
}

func (o *simObserver) ReplicaDone(task string, replica int, rounds int64, converged bool, state string) {
	key := replicaKey(task, replica)
	o.mu.Lock()
	sp := o.open[key]
	delete(o.open, key)
	o.mu.Unlock()
	sp.end()
}

func (o *simObserver) Checkpoint(task string, replica int)             { o.tr.checkpoints.Add(1) }
func (o *simObserver) Recovery(task string, replica int, rounds int64) {}

// ctxKey carries the tracer and the current span through a context, so the
// HTTP transport can parent its spans.
type ctxKey struct{}

type ctxSpan struct {
	tr *tracer
	id int64
}

func withSpan(ctx context.Context, sp spanRef) context.Context {
	if sp.tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxSpan{sp.tr, sp.id})
}

// childSpan opens a span under the context's span (a no-op in an untraced
// context) and returns the context its own children should use.
func childSpan(ctx context.Context, name string) (context.Context, spanRef) {
	cs, ok := ctx.Value(ctxKey{}).(ctxSpan)
	if !ok {
		return ctx, spanRef{}
	}
	sp := cs.tr.begin(name, cs.id)
	return withSpan(ctx, sp), sp
}

// route names a request by method and path with IDs collapsed, so spans
// group by endpoint.
func route(method, path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 3 && (parts[2] == "jobs" || parts[2] == "lease") {
		parts[3] = "{id}"
	}
	return method + " " + strings.Join(parts, "/")
}

// traceTransport records an "http" span per request made with a traced
// context. The span ends when the response body is closed, so it covers
// reading a streamed body too. Its self time (outside the handler span) is
// the transport, the loopback, and any wait for the server goroutine to be
// scheduled while simulation work holds the CPU.
type traceTransport struct {
	base http.RoundTripper
}

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	cs, ok := req.Context().Value(ctxKey{}).(ctxSpan)
	if !ok {
		return t.base.RoundTrip(req)
	}
	sp := cs.tr.begin("http "+route(req.Method, req.URL.Path), cs.id)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp   spanRef
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}

// traceHandler records a "serve" span for every request that carries a
// client span ID, parented to that client span.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("serve "+route(r.Method, r.URL.Path), parent)
		defer sp.end()
		h.ServeHTTP(w, r)
	})
}

// newClient returns an HTTP client with one keep-alive connection per
// concurrent caller and the tracing transport.
func newClient(conns int) *http.Client {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = conns
	base.MaxConnsPerHost = conns
	return &http.Client{Transport: traceTransport{base: base}, Timeout: time.Minute}
}

// accounting splits the traced operations' wall time into the self time
// of each span name. A span's self time is its duration minus the part
// its children cover; a root's self time is the unaccounted remainder.
type accounting struct {
	ops         int
	opWallUS    float64
	selfUS      map[string]float64
	count       map[string]int
	unaccounted float64
	rounds      int64
	checkpoints int64
}

func (t *tracer) account() accounting {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	a := accounting{
		selfUS:      map[string]float64{},
		count:       map[string]int{},
		rounds:      t.rounds.Load(),
		checkpoints: t.checkpoints.Load(),
	}
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s, children[s.ID])
		if s.Parent == 0 {
			a.ops++
			a.opWallUS += s.End - s.Start
			a.unaccounted += self
			continue
		}
		a.selfUS[s.Name] += self
		a.count[s.Name]++
	}
	return a
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// unaccountedPct is the share of traced operation wall time that no layer
// span covers.
func (a accounting) unaccountedPct() float64 {
	if a.opWallUS == 0 {
		return 0
	}
	return 100 * a.unaccounted / a.opWallUS
}

// layers renders the accounting as per-span-name shares of operation wall
// time. Children of concurrent parents overlap, so shares can sum past 100.
func (a accounting) layers() map[string]layerShare {
	out := map[string]layerShare{}
	if a.ops == 0 {
		return out
	}
	for name, self := range a.selfUS {
		out[name] = layerShare{
			Spans:    a.count[name],
			SelfMSOp: self / 1e3 / float64(a.ops),
			SharePct: 100 * self / a.opWallUS,
		}
	}
	out["(unaccounted)"] = layerShare{
		Spans:    a.ops,
		SelfMSOp: a.unaccounted / 1e3 / float64(a.ops),
		SharePct: a.unaccountedPct(),
	}
	return out
}

// report prints the layer table to w, with a "missing layer" line when
// more than 10% of operation wall time is outside every layer span.
func (a accounting) report(w io.Writer, workload string) {
	fmt.Fprintf(w, "trace %s: %d traced ops, %.1f engine rounds/op, %.1f checkpoints/op\n",
		workload, a.ops, float64(a.rounds)/float64(max(a.ops, 1)), float64(a.checkpoints)/float64(max(a.ops, 1)))
	layers := a.layers()
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].SharePct > layers[names[j]].SharePct })
	for _, name := range names {
		l := layers[name]
		fmt.Fprintf(w, "  %-40s %7d spans %10.3f ms/op self %6.1f%% of op wall\n", name, l.Spans, l.SelfMSOp, l.SharePct)
	}
	if pct := a.unaccountedPct(); pct > 10 {
		fmt.Fprintf(w, "missing layer: %s leaves %.1f%% of op wall time outside every layer span\n", workload, pct)
	}
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
