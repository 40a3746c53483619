package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// metricValue reads one unlabelled sample from a /metrics exposition.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("metrics missing %s:\n%s", name, text)
	return 0
}

// lastEvent decodes an NDJSON event stream to its end and returns its
// final event.
func lastEvent(r io.Reader) (Event, error) {
	var ev Event
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return Event{}, fmt.Errorf("bad event line %q: %w", sc.Text(), err)
		}
	}
	return ev, sc.Err()
}

// TestEngineMetricsFoldExactly runs parallel-mode jobs on two workers,
// each watched by one event stream, and requires the folded server-wide
// counters to equal what the jobs and their streams report: rounds and
// activations summed over every replica's Result, and drops summed over
// the job_done lines. Every stream is read live, but every other one
// only once its job ended, so it falls behind and drops events.
func TestEngineMetricsFoldExactly(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	_, ts := newTestServer(t, Options{Workers: 2, testHook: func(*job) { <-gate }})

	const jobs = 6
	ids := make([]string, jobs)
	for i := range ids {
		spec := JobSpec{Name: "fold", N: 2048, Z: 1, Rule: "voter", Replicas: 4, Seed: uint64(100 + i)}
		code, _, js := submitJSON(t, ts, spec, "")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, code)
		}
		ids[i] = js.ID
	}
	streams := make([]*http.Response, jobs)
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatalf("events: %v", err)
		}
		defer resp.Body.Close()
		streams[i] = resp
	}
	// The events handler subscribes before it sends the headers, so every
	// stream is watched before any job runs.
	open()

	finals := make([]Event, jobs)
	errs := make([]error, jobs)
	var readers sync.WaitGroup
	for i := 0; i < jobs; i += 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			finals[i], errs[i] = lastEvent(streams[i].Body)
		}()
	}
	for i := 1; i < jobs; i += 2 {
		waitTerminal(t, ts, ids[i])
		finals[i], errs[i] = lastEvent(streams[i].Body)
	}
	readers.Wait()
	var dropped int64
	for i, last := range finals {
		if errs[i] != nil {
			t.Fatalf("job %s: %v", ids[i], errs[i])
		}
		if last.Type != "job_done" || last.State != "done" {
			t.Fatalf("job %s: final event %+v, want job_done/done", ids[i], last)
		}
		dropped += last.Dropped
	}
	var rounds, activations int64
	for _, id := range ids {
		var res JobResult
		if err := json.Unmarshal(getResult(t, ts, id), &res); err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		for _, r := range res.Results {
			rounds += r.Rounds
			activations += r.Activations
		}
	}

	mt := metricsText(t, ts)
	for _, c := range []struct {
		name string
		want int64
	}{
		{"bitspread_rounds_total", rounds},
		{"bitspread_activations_total", activations},
		{"bitspreadd_events_dropped_total", dropped},
	} {
		if got := metricValue(t, mt, c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	t.Logf("%d replica-rounds, %d events dropped", rounds, dropped)
}

// TestMetricsScrapeSeesRunningJob: a scrape taken while a job runs folds
// the job's rounds so far, so it reports at least the highest round the
// job's event stream has already shown. The job is Minority(3) from the
// half-split trap, which cannot finish within the test.
func TestMetricsScrapeSeesRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	x0 := int64(1 << 12)
	spec := JobSpec{Name: "live", N: 1 << 13, Z: 1, X0: &x0, Rule: "minority", Ell: 3, Replicas: 2, Seed: 3, MaxRounds: 50_000_000}
	code, _, js := submitJSON(t, ts, spec, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + js.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()

	var shown int64
	sc := bufio.NewScanner(resp.Body)
	for shown < 500 && sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Type == "job_done" {
			t.Fatalf("job ended early: %+v", ev)
		}
		if ev.Type == "round" && ev.Round > shown {
			shown = ev.Round
		}
	}
	if shown < 500 {
		t.Fatalf("stream ended at round %d: %v", shown, sc.Err())
	}
	rounds := metricValue(t, metricsText(t, ts), "bitspread_rounds_total")
	if _, st := getStatus(t, ts, js.ID); st.State != "running" {
		t.Fatalf("job is %s after the scrape, want running", st.State)
	}
	if rounds < shown {
		t.Errorf("scrape reports %d rounds, but the stream already showed round %d", rounds, shown)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+js.ID, nil)
	if err != nil {
		t.Fatalf("cancel request: %v", err)
	}
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	cresp.Body.Close()
	if st := waitTerminal(t, ts, js.ID); st.State != "cancelled" {
		t.Fatalf("job ended %q, want cancelled", st.State)
	}
	if after := metricValue(t, metricsText(t, ts), "bitspread_rounds_total"); after < rounds {
		t.Errorf("rounds_total fell from %d to %d", rounds, after)
	}
}
