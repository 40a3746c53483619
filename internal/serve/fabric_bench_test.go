package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"bitspread/internal/sim"
)

// BenchmarkFabricWorkers times the distributed sweep on the path
// `bitspreadd -fabric` and `bitspreadd -pull` run, at 1, 2 and 4 pull
// workers. Each iteration starts a memory-only coordinator over 4
// partitions of the quick T2 sweep, runs the workers' RunPullWorker
// loops against it over HTTP until the sweep drains, and fetches the
// merged journal, which must equal the single-process reference byte for
// byte. It reports merged (task, replica) entries per second and the
// partitions idle workers stole per sweep. Run it with
//
//	go test -run '^$' -bench BenchmarkFabricWorkers -cpu 1,2,4 ./internal/serve/
func BenchmarkFabricWorkers(b *testing.B) {
	fopts := FabricOptions{Exps: []string{"T2"}, Seed: 2024, Quick: true, Partitions: 4, SimWorkers: 1}
	want := referenceJournalBytes(b, fopts.spec())
	ref, err := sim.MergeJournals(io.Discard, []sim.MergeSource{{Name: "reference", Data: want}})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			steals := 0
			for i := 0; i < b.N; i++ {
				got, st := fabricSweep(b, fopts, workers)
				if !bytes.Equal(got, want) {
					b.Fatal("merged journal differs from the single-process reference")
				}
				steals += st.Board.Steals
			}
			b.ReportMetric(float64(ref.Entries*b.N)/b.Elapsed().Seconds(), "tasks/s")
			b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
		})
	}
}

// fabricSweep runs one sweep with the given number of pull workers
// against a fresh memory-only coordinator and returns the merged journal
// and the coordinator's final status.
func fabricSweep(b *testing.B, fopts FabricOptions, workers int) ([]byte, FabricStatus) {
	s, err := New(Options{Fabric: &fopts})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	dir := b.TempDir()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			errs[w] = RunPullWorker(context.Background(), PullWorkerOptions{URL: ts.URL, Name: name, ShardDir: filepath.Join(dir, name)})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		b.Fatal(err)
	}
	var st FabricStatus
	if err := json.Unmarshal(getOK(b, ts.URL+"/v1/fabric/status"), &st); err != nil {
		b.Fatal(err)
	}
	return getOK(b, ts.URL+"/v1/fabric/journal"), st
}

// getOK fetches url and fails unless it answers 200.
func getOK(tb testing.TB, url string) []byte {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}
