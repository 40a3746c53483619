package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bitspread_test_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("bitspread_test_total"); again != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("bitspread_test_gauge")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want 3", g.Value())
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("whatever")
	g := r.Gauge("whatever")
	h := r.Histogram("whatever", LoadBuckets)
	c.Inc()
	c.Add(3)
	g.Set(9)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must observe nothing")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WriteText: %v", err)
	}

	m := NewMetrics(nil)
	m.RoundDone(1, 2, 3)
	m.FaultApplied(1)
	m.ShardRound(0, 4)
	var nilM *Metrics
	nilM.RoundDone(1, 2, 3)
	nilM.FaultApplied(1)
	nilM.ShardRound(0, 4)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bitspread_test_hist", []float64{1, 10, 100})
	for _, v := range []int64{0, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1024 {
		t.Errorf("sum = %d, want 1024", h.Sum())
	}
	want := []int64{2, 2, 1, 1} // le=1: {0,1}; le=10: {2,10}; le=100: {11}; +Inf: {1000}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("bitspread_b_total").Add(2)
	r.Counter("bitspread_a_total").Add(1)
	r.Gauge("bitspread_g").Set(5)
	h := r.Histogram("bitspread_h", []float64{1, 2})
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Counters are sorted, so a_total precedes b_total.
	if strings.Index(out, "bitspread_a_total 1") > strings.Index(out, "bitspread_b_total 2") {
		t.Errorf("counters not sorted:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE bitspread_a_total counter",
		"# TYPE bitspread_g gauge",
		"bitspread_g 5",
		"# TYPE bitspread_h histogram",
		`bitspread_h_bucket{le="1"} 1`,
		`bitspread_h_bucket{le="2"} 2`,
		`bitspread_h_bucket{le="+Inf"} 3`,
		"bitspread_h_sum 6",
		"bitspread_h_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestBadMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "with space", "7starts_with_digit", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestMetricsProbeFoldsEvents(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	m.RoundDone(1, 10, 100)
	m.RoundDone(2, 12, 90)
	m.FaultApplied(2)
	m.ShardRound(0, 45)
	m.ShardRound(1, 45)
	if m.Rounds.Value() != 2 {
		t.Errorf("rounds = %d", m.Rounds.Value())
	}
	if m.Activations.Value() != 190 {
		t.Errorf("activations = %d", m.Activations.Value())
	}
	if m.FaultRounds.Value() != 1 {
		t.Errorf("fault rounds = %d", m.FaultRounds.Value())
	}
	if m.Ones.Value() != 12 {
		t.Errorf("ones = %d", m.Ones.Value())
	}
	if m.ShardLoad.Count() != 2 || m.ShardLoad.Sum() != 90 {
		t.Errorf("shard load = %d/%d", m.ShardLoad.Count(), m.ShardLoad.Sum())
	}
}

// TestMetricsConcurrent exercises the atomic hot path under the race
// detector: one Metrics value shared by many goroutines, as sim shares
// it across replicas.
func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	var wg sync.WaitGroup
	const workers, rounds = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= rounds; i++ {
				m.RoundDone(i, i, 3)
				m.ShardRound(0, 3)
			}
		}()
	}
	wg.Wait()
	if m.Rounds.Value() != workers*rounds {
		t.Errorf("rounds = %d, want %d", m.Rounds.Value(), workers*rounds)
	}
	if m.Activations.Value() != workers*rounds*3 {
		t.Errorf("activations = %d", m.Activations.Value())
	}
}

// TestHotPathAllocationFree is the obs side of the overhead guard: the
// per-round probe path must not allocate, or sweeps with millions of
// rounds would thrash the GC.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	round := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		round++
		m.RoundDone(round, 42, 1000)
		m.FaultApplied(round)
		m.ShardRound(1, 500)
	})
	if allocs != 0 {
		t.Errorf("probe hot path allocates %.1f times per round, want 0", allocs)
	}
}

// TestMetricsFoldMovesCounts pins Fold's bookkeeping: every counter and
// bucket moves to the destination and reads zero at the source, the
// one-count gauge follows a source that ran rounds, and folding an idle
// source changes nothing.
func TestMetricsFoldMovesCounts(t *testing.T) {
	dst := NewMetrics(NewRegistry())
	src := NewMetrics(NewRegistry())
	dst.RoundDone(1, 5, 20)
	src.RoundDone(1, 10, 100)
	src.RoundDone(2, 12, 1<<20)
	src.FaultApplied(2)
	src.ShardRound(0, 45)
	dst.Fold(src)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"rounds", dst.Rounds.Value(), 3},
		{"activations", dst.Activations.Value(), 20 + 100 + 1<<20},
		{"fault rounds", dst.FaultRounds.Value(), 1},
		{"ones", dst.Ones.Value(), 12},
		{"round load count", dst.RoundLoad.Count(), 3},
		{"round load sum", dst.RoundLoad.Sum(), 20 + 100 + 1<<20},
		{"shard load count", dst.ShardLoad.Count(), 1},
		{"source rounds", src.Rounds.Value(), 0},
		{"source activations", src.Activations.Value(), 0},
		{"source fault rounds", src.FaultRounds.Value(), 0},
		{"source round load", src.RoundLoad.Count() + src.RoundLoad.Sum(), 0},
		{"source shard load", src.ShardLoad.Count() + src.ShardLoad.Sum(), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// Buckets keep their identity: 20 and 100 land at le=256, 2²⁰ at le=2²⁰.
	if got := dst.RoundLoad.counts[2].Load(); got != 2 {
		t.Errorf("le=256 bucket = %d, want 2", got)
	}
	if got := dst.RoundLoad.counts[5].Load(); got != 1 {
		t.Errorf("le=2^20 bucket = %d, want 1", got)
	}

	dst.RoundDone(3, 7, 1)
	dst.Fold(src)
	if dst.Ones.Value() != 7 || dst.Rounds.Value() != 4 {
		t.Errorf("folding an idle source moved the gauge or the counters: ones=%d rounds=%d",
			dst.Ones.Value(), dst.Rounds.Value())
	}
}

// TestMetricsFoldConcurrentIsExact folds a private Metrics in a loop
// while several goroutines write it, as a /metrics scrape folds a running
// bitspreadd job: every count must land in the destination exactly once.
func TestMetricsFoldConcurrentIsExact(t *testing.T) {
	dst := NewMetrics(NewRegistry())
	src := NewMetrics(NewRegistry())
	const writers, rounds = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= rounds; i++ {
				src.RoundDone(i, i, 3)
				src.FaultApplied(i)
				src.ShardRound(0, 5)
			}
		}()
	}
	stop := make(chan struct{})
	folded := make(chan struct{})
	go func() {
		defer close(folded)
		for {
			select {
			case <-stop:
				return
			default:
				dst.Fold(src)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-folded
	dst.Fold(src)

	const n = writers * rounds
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"rounds", dst.Rounds.Value(), n},
		{"activations", dst.Activations.Value(), 3 * n},
		{"fault rounds", dst.FaultRounds.Value(), n},
		{"round load count", dst.RoundLoad.Count(), n},
		{"round load sum", dst.RoundLoad.Sum(), 3 * n},
		{"shard load count", dst.ShardLoad.Count(), n},
		{"shard load sum", dst.ShardLoad.Sum(), 5 * n},
		{"source rounds", src.Rounds.Value(), 0},
		{"source round load", src.RoundLoad.Count(), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
