package serve

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitspread/internal/durable"
	"bitspread/internal/obs"
)

// TestHubDropsOnSlowSubscriberAndCounts: with buffer 1 the slow
// subscriber drops 3 of 4 events while the fast one keeps all 4, and the
// server-wide counter books the 3 drops exactly once — when the slow
// subscriber leaves, whether it unsubscribes before the hub closes or
// after close already removed it.
func TestHubDropsOnSlowSubscriberAndCounts(t *testing.T) {
	for _, leaveFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("unsubscribe-before-close=%v", leaveFirst), func(t *testing.T) {
			var total obs.Counter
			h := newHub(&total)
			slow := h.subscribe(1)
			fast := h.subscribe(8)
			for i := int64(1); i <= 4; i++ {
				h.publish(Event{Type: "round", Round: i})
			}
			if got := slow.dropped.Load(); got != 3 {
				t.Fatalf("slow subscriber dropped %d, want 3", got)
			}
			if got := fast.dropped.Load(); got != 0 {
				t.Fatalf("fast subscriber dropped %d, want 0", got)
			}
			if batch, _ := h.take(fast, nil); len(batch) != 4 {
				t.Fatalf("fast subscriber buffered %d, want 4", len(batch))
			}
			if got := total.Value(); got != 0 {
				t.Fatalf("server-wide drops = %d before anyone left, want 0", got)
			}
			if leaveFirst {
				h.unsubscribe(slow)
			}
			h.close(Event{Type: "job_done", State: "done"})
			if !leaveFirst {
				batch, open := h.take(slow, nil)
				if len(batch) != 1 || batch[0].Round != 1 {
					t.Fatalf("slow subscriber kept %+v, want its one buffered event", batch)
				}
				if open {
					t.Fatal("stream not over after hub close")
				}
			}
			if got := total.Value(); got != 3 {
				t.Fatalf("server-wide drops after close = %d, want 3", got)
			}
			h.unsubscribe(slow)
			h.unsubscribe(fast)
			if got := total.Value(); got != 3 {
				t.Fatalf("server-wide drops after unsubscribe = %d, want 3 (booked once)", got)
			}
			if fe := h.finalEvent(); fe.State != "done" {
				t.Fatalf("finalEvent = %+v", fe)
			}
		})
	}
}

func TestHubLateSubscriberGetsClosedChannel(t *testing.T) {
	h := newHub(nil)
	h.close(Event{Type: "job_done", State: "failed"})
	sub := h.subscribe(4)
	select {
	case <-sub.ready:
	default:
		t.Fatal("late subscriber not woken")
	}
	if batch, open := h.take(sub, nil); open || len(batch) != 0 {
		t.Fatalf("late subscription should be over immediately, got %d events, open %v", len(batch), open)
	}
	if fe := h.finalEvent(); fe.State != "failed" {
		t.Fatalf("finalEvent = %+v", fe)
	}
	// Publishing after close must be a no-op, not a panic.
	h.publish(Event{Type: "round"})
}

// TestHubReaderKeepsUpWithPublisher runs a publisher against a reader
// that waits for each wake and takes the whole queue, as the events
// handler does. Every event is either read, in publish order, or counted
// as dropped, and the reader sees the stream end once the hub closes.
func TestHubReaderKeepsUpWithPublisher(t *testing.T) {
	const events = 20000
	h := newHub(nil)
	sub := h.subscribe(16)
	var got []int64
	done := make(chan bool)
	go func() {
		var batch []Event
		for open := true; open; {
			<-sub.ready
			batch, open = h.take(sub, batch)
			for _, ev := range batch {
				got = append(got, ev.Round)
			}
		}
		done <- true
	}()
	for i := int64(1); i <= events; i++ {
		h.publish(Event{Type: "round", Round: i})
	}
	h.close(Event{Type: "job_done", State: "done"})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reader never saw the stream end")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("event %d arrived after %d", got[i], got[i-1])
		}
	}
	if n := int64(len(got)) + sub.dropped.Load(); n != events {
		t.Fatalf("read %d + dropped %d = %d, want %d", len(got), sub.dropped.Load(), n, events)
	}
}

// jobLogFile is the intent log with the lower-case methods the job-log
// tests use.
type jobLogFile struct{ *durable.Log }

func (l jobLogFile) append(e jobLogEntry) error { return l.Append(e) }
func (l jobLogFile) close() error               { return l.Close() }

// openJobLog opens the intent log on the real filesystem.
func openJobLog(path string, logf func(string, ...any)) (jobLogFile, []jobLogEntry, error) {
	l, entries, err := openJobLogFS(durable.OS{}, path, logf)
	return jobLogFile{l}, entries, err
}

func TestJobLogTornFinalLineDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	spec := testSpec(1)
	lg, entries, err := openJobLog(path, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh log has %d entries", len(entries))
	}
	if err := lg.append(jobLogEntry{Ev: "submit", ID: "aa", Spec: &spec}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := lg.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Simulate a crash mid-append: a torn, unparsable final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := f.WriteString(`{"ev":"end","id":"aa","sta`); err != nil {
		t.Fatalf("write torn line: %v", err)
	}
	f.Close()

	var logged []string
	lg2, entries, err := openJobLog(path, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatalf("reopen log: %v", err)
	}
	defer lg2.close()
	if len(entries) != 1 || entries[0].Ev != "submit" || entries[0].ID != "aa" {
		t.Fatalf("entries = %+v, want the one intact submit", entries)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "truncated final line") {
		t.Fatalf("diagnostics = %q, want one truncation report", logged)
	}
}

// TestJobLogTornTailTruncatedOnOpen: opening a log with a torn final line
// cuts the fragment off the file, so entries appended afterwards survive
// the next reopen instead of turning the fragment into mid-file
// corruption.
func TestJobLogTornTailTruncatedOnOpen(t *testing.T) {
	for _, tail := range []string{
		`{"ev":"submit","id":"b`, // cut off mid-line
		"garbage\n",              // a whole corrupt final line
	} {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		content := `{"ev":"submit","id":"aa"}` + "\n" + tail
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		reopenAppend := func(id string, want ...string) {
			t.Helper()
			lg, entries, err := openJobLog(path, nil)
			if err != nil {
				t.Fatalf("tail %q: open before appending %s: %v", tail, id, err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.ID)
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("tail %q: open before appending %s replayed %v, want %v", tail, id, got, want)
			}
			if err := lg.append(jobLogEntry{Ev: "submit", ID: id}); err != nil {
				t.Fatalf("append %s: %v", id, err)
			}
			if err := lg.close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
		reopenAppend("cc", "aa")
		reopenAppend("dd", "aa", "cc")
		reopenAppend("ee", "aa", "cc", "dd")
	}
}

func TestJobLogMidFileCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	content := `{"ev":"submit","id":"aa"}` + "\n" + `garbage` + "\n" + `{"ev":"end","id":"aa","state":"done"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := openJobLog(path, nil); err == nil {
		t.Fatal("mid-file corruption must not be silently dropped")
	}
}

func TestAdmissionRefillAndBurst(t *testing.T) {
	clock := time.Unix(1000, 0)
	a := newAdmission(2, 3, func() time.Time { return clock })

	for i := 0; i < 3; i++ {
		if ok, _ := a.allow("t"); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, ra := a.allow("t")
	if ok {
		t.Fatal("empty bucket allowed a submission")
	}
	// Next token accrues in 1/rate = 500ms.
	if ra != 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 500ms", ra)
	}

	clock = clock.Add(time.Second) // refills 2 tokens
	for i := 0; i < 2; i++ {
		if ok, _ := a.allow("t"); !ok {
			t.Fatalf("refilled token %d denied", i)
		}
	}
	if ok, _ := a.allow("t"); ok {
		t.Fatal("over-refill: bucket should be empty again")
	}

	// Refill never exceeds burst.
	clock = clock.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := a.allow("t"); !ok {
			t.Fatalf("post-idle token %d denied", i)
		}
	}
	if ok, _ := a.allow("t"); ok {
		t.Fatal("bucket exceeded burst after long idle")
	}
}

func TestAdmissionDisabledAndTenantBound(t *testing.T) {
	if ok, _ := newAdmission(0, 1, nil).allow("anyone"); !ok {
		t.Fatal("rate 0 must disable quotas")
	}

	clock := time.Unix(0, 0)
	a := newAdmission(1, 1, func() time.Time { return clock })
	// A flood of unique tenants must not grow the table without bound.
	for i := 0; i < maxTenantBuckets+100; i++ {
		clock = clock.Add(time.Millisecond)
		a.allow(fmt.Sprintf("tenant-%d", i))
	}
	a.mu.Lock()
	n := len(a.bkts)
	a.mu.Unlock()
	if n > maxTenantBuckets {
		t.Fatalf("bucket table grew to %d, bound is %d", n, maxTenantBuckets)
	}
}

func TestResultCacheAtomicPutGet(t *testing.T) {
	c, err := newResultCache(durable.OS{}, filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatalf("newResultCache: %v", err)
	}
	if _, ok := c.get("aa"); ok {
		t.Fatal("get on empty cache")
	}
	payload := []byte(`{"id":"aa"}` + "\n")
	if err := c.put("aa", payload); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok := c.get("aa")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get = %q, %v", got, ok)
	}
	// Overwrite is atomic too: same ID, new payload.
	if err := c.put("aa", []byte("v2\n")); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	if got, _ := c.get("aa"); !bytes.Equal(got, []byte("v2\n")) {
		t.Fatalf("after re-put: %q", got)
	}
	// No temp-file litter after successful publishes.
	names, err := os.ReadDir(c.dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, e := range names {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}

	// A nil cache (memory-only server) is inert.
	var nilCache *resultCache
	if err := nilCache.put("x", payload); err != nil {
		t.Fatalf("nil put: %v", err)
	}
	if _, ok := nilCache.get("x"); ok {
		t.Fatal("nil cache returned a payload")
	}
}

// TestBuildTaskBounds: admission bounds what a job may allocate before
// any engine runs. An agents replica's two n/8-byte bitsets must fit sim's
// agent batch budget (256 MiB, so n ≤ 2³⁰), and a job fans out to at most
// 2²⁰ replicas. buildTask allocates nothing either way.
func TestBuildTaskBounds(t *testing.T) {
	for _, c := range []struct {
		spec JobSpec
		ok   bool
	}{
		{JobSpec{Rule: "voter", Mode: "agents", N: 1 << 30}, true},
		{JobSpec{Rule: "voter", Mode: "agents", N: 1<<30 + 1}, false},
		{JobSpec{Rule: "voter", Mode: "agents", N: 1 << 40}, false},
		{JobSpec{Rule: "voter", N: 1 << 40}, true}, // a count-engine replica holds one count
		{JobSpec{Rule: "voter", N: 64, Replicas: 1 << 20}, true},
		{JobSpec{Rule: "voter", N: 64, Replicas: 1<<20 + 1}, false},
		{JobSpec{Rule: "voter", N: 64, Replicas: 1 << 30}, false},
	} {
		sp := c.spec
		sp.normalize()
		if _, err := sp.buildTask(nil); (err == nil) != c.ok {
			t.Errorf("%+v: buildTask error %v, want ok %v", c.spec, err, c.ok)
		}
	}
}

func TestJobIDContentAddressing(t *testing.T) {
	spec := testSpec(1)
	spec.normalize()
	task, err := spec.buildTask(nil)
	if err != nil {
		t.Fatalf("buildTask: %v", err)
	}
	a := jobID(task, spec.Replicas)
	b := jobID(task, spec.Replicas)
	if a != b {
		t.Fatalf("same job hashed to %s and %s", a, b)
	}
	if c := jobID(task, spec.Replicas+1); c == a {
		t.Fatal("replica count must be part of the address")
	}
	other := testSpec(2)
	other.normalize()
	otherTask, err := other.buildTask(nil)
	if err != nil {
		t.Fatalf("buildTask: %v", err)
	}
	if c := jobID(otherTask, other.Replicas); c == a {
		t.Fatal("different seeds must address different jobs")
	}
}

func TestSpecNormalizeWorstCaseX0(t *testing.T) {
	s1 := JobSpec{N: 100, Z: 1, Rule: "voter", Seed: 1}
	s1.normalize()
	if *s1.X0 != 1 {
		t.Fatalf("z=1 worst case x0 = %d, want 1 (only the source holds 1)", *s1.X0)
	}
	s0 := JobSpec{N: 100, Z: 0, Rule: "voter", Seed: 1}
	s0.normalize()
	if *s0.X0 != 99 {
		t.Fatalf("z=0 worst case x0 = %d, want 99 (everyone but the source holds 1)", *s0.X0)
	}
	explicit := int64(40)
	s2 := JobSpec{N: 100, Z: 1, Rule: "voter", Seed: 1, X0: &explicit}
	s2.normalize()
	if *s2.X0 != 40 {
		t.Fatalf("explicit x0 overwritten to %d", *s2.X0)
	}
}

func TestTimeoutOrDefault(t *testing.T) {
	cap := 10 * time.Minute
	cases := []struct {
		in   string
		want time.Duration
		err  bool
	}{
		{"", cap, false},
		{"30s", 30 * time.Second, false},
		{"2h", cap, false}, // above the cap: clamped
		{"-5s", cap, false},
		{"soon", 0, true},
	}
	for _, c := range cases {
		sp := JobSpec{Timeout: c.in}
		got, err := sp.timeoutOrDefault(cap)
		if c.err != (err != nil) {
			t.Errorf("timeout %q: err = %v", c.in, err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("timeout %q = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRetryAfterSecondsClamps(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "1"},
		{0.2, "1"}, // sub-second waits round up, never down to 0
		{1, "1"},
		{1.2, "2"},
		{59.5, "60"},
		{-5, "1"},
		{math.NaN(), "1"},
		{math.Inf(1), "3600"},
		{1e300, "3600"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.in); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
