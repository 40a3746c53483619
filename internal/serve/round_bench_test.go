package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bitspread/internal/sim"
)

// BenchmarkJobRounds measures what one replica-round of a bitspreadd job
// costs on the server's own path — worker pool, job probe, event hub —
// for the service benchmark's job (voter, n = 4096, 4 parallel replicas),
// at 1 and 2 concurrent jobs, with no subscriber and with one subscriber
// per job draining its stream. The probe=none cells run the same
// replicas through sim.RunContext with no probe: the floor the others
// are compared with. Run it with
//
//	go test -run '^$' -bench BenchmarkJobRounds -benchtime 3s ./internal/serve/
func BenchmarkJobRounds(b *testing.B) {
	spec := JobSpec{Name: "bench", N: 4096, Z: 1, Rule: "voter", Replicas: 4}
	spec.normalize()
	for _, jobs := range []int{1, 2} {
		b.Run(fmt.Sprintf("jobs=%d/probe=none", jobs), func(b *testing.B) {
			benchPlainRounds(b, spec, jobs)
		})
		for _, watched := range []bool{false, true} {
			name := fmt.Sprintf("jobs=%d/probe=server", jobs)
			if watched {
				name += "+subscriber"
			}
			b.Run(name, func(b *testing.B) {
				benchServerRounds(b, spec, jobs, watched)
			})
		}
	}
}

// benchPlainRounds runs jobs tasks at a time through sim.RunContext with
// no probe and reports ns per replica-round.
func benchPlainRounds(b *testing.B, spec JobSpec, jobs int) {
	var rounds int64
	var mu sync.Mutex
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < jobs; j++ {
			sp := spec
			sp.Seed = uint64(i*jobs + j)
			task, err := sp.buildTask(nil)
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := sim.RunContext(context.Background(), task, 1, nil)
				if err != nil {
					b.Error(err)
					return
				}
				mu.Lock()
				for _, r := range out.Results {
					rounds += r.Rounds
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/replica-round")
}

// benchServerRounds queues jobs jobs at a time on a memory-only server
// with that many workers and reports ns per replica-round, counted by the
// server's own bitspread_rounds_total.
func benchServerRounds(b *testing.B, spec JobSpec, jobs int, watched bool) {
	s, err := New(Options{Workers: jobs})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	roundsTotal := s.opts.Registry.Counter("bitspread_rounds_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var readers sync.WaitGroup
		for j := 0; j < jobs; j++ {
			sp := spec
			sp.Seed = uint64(i*jobs + j)
			task, err := sp.buildTask(nil)
			if err != nil {
				b.Fatal(err)
			}
			jb := &job{id: fmt.Sprint(sp.Seed), spec: sp, task: task, timeout: time.Hour, hub: newHub(s.m.eventsDropped)}
			if watched {
				sub := jb.hub.subscribe(256)
				readers.Add(1)
				go func() {
					defer readers.Done()
					var batch []Event
					for open := true; open; {
						<-sub.ready
						batch, open = jb.hub.take(sub, batch)
					}
				}()
			}
			s.jobsWG.Add(1)
			s.queue <- jb
		}
		s.jobsWG.Wait()
		readers.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(roundsTotal.Value()), "ns/replica-round")
}
