package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bitspread/internal/durable/durabletest"
	"bitspread/internal/fabric"
	"bitspread/internal/sim"
)

// Crash-point enumeration: each durable path of the daemon runs against a
// durabletest.FS stopped after its k-th write, sync, rename or directory
// sync, for every k. A daemon then restarts, twice, on each directory the
// stop can leave behind — after a process death, after a power loss, and
// after a power loss that kept the last unsynced line with its first bytes
// zeroed — and must serve results byte-identical to an uninterrupted run
// without losing anything it acknowledged: a 202'd job, a 201'd protocol,
// a published shard, or a synced log line.

// crashPath is one durable path of the daemon.
type crashPath struct {
	opts func(dir string, logf func(string, ...any)) Options
	// drive runs the path until it finishes or fsys stops, and returns
	// what the daemon acknowledged, keyed by kind and ID.
	drive func(t *testing.T, s *Server, fsys *durabletest.FS) map[string]bool
	// reference renders the path's results after an uninterrupted drive.
	reference func(t *testing.T, s *Server) map[string][]byte
	// check restarts on a crash directory; life counts restarts from 0.
	check func(t *testing.T, at string, s *Server, life int, acked map[string]bool, ref map[string][]byte)
	// logs are the append logs whose synced bytes every restart keeps.
	logs []string
}

// call serves one request in process and returns the code and body.
func call(s *Server, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// enumerateCrashPoints runs p uninterrupted once, for its crash points
// and reference, then stops it at each crash point in turn.
func enumerateCrashPoints(t *testing.T, p crashPath) {
	dir := t.TempDir()
	fsys, err := durabletest.New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(p.opts(dir, nil), fsys)
	if err != nil {
		t.Fatal(err)
	}
	p.drive(t, s, fsys)
	ref := p.reference(t, s)
	s.Close()
	points := fsys.Points()
	t.Logf("%d crash points: %s", len(points), strings.Join(points, ", "))

	for k := 1; k <= len(points); k++ {
		dir := t.TempDir()
		fsys, err := durabletest.New(dir, k)
		if err != nil {
			t.Fatal(err)
		}
		acked := map[string]bool{}
		// A stop inside New fails it before anything is acknowledged.
		if s, err := newServer(p.opts(dir, nil), fsys); err == nil {
			acked = p.drive(t, s, fsys)
			s.Close()
		} else if !fsys.Stopped() {
			t.Fatalf("crash point %d: New failed before the stop: %v", k, err)
		}
		synced := map[string][]byte{}
		for _, name := range p.logs {
			synced[name] = fsys.Synced(filepath.Join(dir, name))
		}
		states := map[string]func(string) error{
			"process death": fsys.ProcessDeath,
			"power loss":    func(dst string) error { return fsys.PowerLoss(dst, false) },
		}
		if fsys.Torn() {
			states["power loss, torn tail"] = func(dst string) error { return fsys.PowerLoss(dst, true) }
		}
		for state, restore := range states {
			at := fmt.Sprintf("crash point %d/%d (%s), %s", k, len(points), points[k-1], state)
			dst := t.TempDir()
			if err := restore(dst); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			for life := 0; life < 2; life++ {
				s, err := New(p.opts(dst, nil))
				if err != nil {
					t.Fatalf("%s: restart %d: %v", at, life, err)
				}
				if life == 0 {
					for name, want := range synced {
						if got, err := os.ReadFile(filepath.Join(dst, name)); err != nil || !bytes.HasPrefix(got, want) {
							t.Errorf("%s: restart cut synced bytes of %s (%d synced, %d left)", at, name, len(want), len(got))
						}
					}
				}
				p.check(t, at, s, life, acked, ref)
				s.Close()
			}
		}
	}
}

// TestCrashPointsJobPath enumerates protocol registration and the job
// path: submit → intent log → journal → result publish → terminal
// record, for a builtin rule and for the registered bytecode.
func TestCrashPointsJobPath(t *testing.T) {
	voter := JobSpec{Name: "crash", N: 64, Z: 1, Rule: "voter", Replicas: 3, Seed: 21, MaxRounds: 500}
	enumerateCrashPoints(t, crashPath{
		opts: func(dir string, logf func(string, ...any)) Options {
			return Options{DataDir: dir, Workers: 1, Logf: logf}
		},
		logs: []string{"jobs.jsonl", "replicas.jsonl"},
		drive: func(t *testing.T, s *Server, fsys *durabletest.FS) map[string]bool {
			acked := map[string]bool{}
			code, body := call(s, "POST", "/v1/protocols", mustJSON(t, ProtocolSpec{Asm: voterAsm}))
			if code != http.StatusCreated {
				return acked
			}
			var ps ProtocolStatus
			if err := json.Unmarshal(body, &ps); err != nil {
				t.Fatal(err)
			}
			acked["protocol "+ps.ID] = true
			vm := voter
			vm.Rule, vm.Seed = "vm:"+ps.ID, 22
			for _, spec := range []JobSpec{voter, vm} {
				code, body := call(s, "POST", "/v1/jobs", mustJSON(t, spec))
				if code == http.StatusAccepted {
					var js JobStatus
					if err := json.Unmarshal(body, &js); err != nil {
						t.Fatal(err)
					}
					acked["job "+js.ID] = true
				}
				s.jobsWG.Wait()
				if fsys.Stopped() {
					break
				}
			}
			return acked
		},
		reference: func(t *testing.T, s *Server) map[string][]byte {
			ref := map[string][]byte{}
			for id := range s.jobs {
				code, body := call(s, "GET", "/v1/jobs/"+id+"/result", nil)
				if code != http.StatusOK {
					t.Fatalf("uninterrupted job %s: result code %d", id, code)
				}
				ref[id] = body
			}
			if len(ref) != 2 {
				t.Fatalf("uninterrupted run finished %d jobs, want 2", len(ref))
			}
			return ref
		},
		check: func(t *testing.T, at string, s *Server, life int, acked map[string]bool, ref map[string][]byte) {
			s.jobsWG.Wait()
			for a := range acked {
				kind, id, _ := strings.Cut(a, " ")
				if kind == "protocol" {
					if code, _ := call(s, "GET", "/v1/protocols/"+id, nil); code != http.StatusOK {
						t.Errorf("%s: restart %d lost acknowledged protocol %s", at, life, id)
					}
				} else if code, _ := call(s, "GET", "/v1/jobs/"+id+"/result", nil); code != http.StatusOK {
					t.Errorf("%s: restart %d lost acknowledged job %s (result code %d)", at, life, id, code)
				}
			}
			for id, want := range ref {
				if code, got := call(s, "GET", "/v1/jobs/"+id+"/result", nil); code == http.StatusOK && !bytes.Equal(got, want) {
					t.Errorf("%s: restart %d: job %s result differs from the uninterrupted run", at, life, id)
				}
			}
			// Every replica of every finished job is checkpointed: a synced
			// line lost on one restart would be missing on the next.
			s.mu.Lock()
			defer s.mu.Unlock()
			for id, jb := range s.jobs {
				if st, _, _ := jb.snapshot(); st != stateDone {
					continue
				}
				for i := 0; i < jb.task.Replicas; i++ {
					if _, ok := s.journal.Lookup(sim.TaskKey(jb.task), i); !ok {
						t.Errorf("%s: restart %d: job %s replica %d is not in the journal", at, life, id, i)
					}
				}
			}
		},
	})
}

// TestCrashPointsFabricShards enumerates the coordinator's shard
// persistence.
func TestCrashPointsFabricShards(t *testing.T) {
	fopts := &FabricOptions{Exps: []string{"T2"}, Seed: 7, Quick: true, Partitions: 3}
	shards := make([][]byte, fopts.Partitions)
	for i := range shards {
		shards[i] = runShardBytes(t, fopts.spec(), fabric.Shard{Index: i, Count: fopts.Partitions})
	}
	// leaseAndComplete uploads every partition the board still leases and
	// returns those it acknowledged as published: a 200 means durable, and
	// a publish the stop failed answers 503 and stays leased.
	leaseAndComplete := func(t *testing.T, s *Server, stopped func() bool) map[string]bool {
		published := map[string]bool{}
		for !stopped() {
			code, body := call(s, "POST", "/v1/lease", mustJSON(t, LeaseRequest{Worker: "w"}))
			var lr LeaseResponse
			if err := json.Unmarshal(body, &lr); code != http.StatusOK || err != nil {
				t.Fatalf("lease: code %d: %v", code, err)
			}
			if lr.Status != "lease" {
				break
			}
			code, body = call(s, "POST", "/v1/lease/"+lr.LeaseID+"/complete", shards[lr.Partition])
			switch {
			case code == http.StatusOK:
				published[fmt.Sprintf("shard %d", lr.Partition)] = true
			case code != http.StatusServiceUnavailable || !stopped():
				t.Fatalf("complete partition %d: code %d %s", lr.Partition, code, body)
			}
		}
		return published
	}
	merged := func(t *testing.T, s *Server) []byte {
		code, body := call(s, "GET", "/v1/fabric/journal", nil)
		if code != http.StatusOK {
			t.Fatalf("merged journal: code %d %s", code, body)
		}
		return body
	}
	enumerateCrashPoints(t, crashPath{
		opts: func(dir string, logf func(string, ...any)) Options {
			return Options{DataDir: dir, Workers: 1, Fabric: fopts, Logf: logf}
		},
		drive: func(t *testing.T, s *Server, fsys *durabletest.FS) map[string]bool {
			return leaseAndComplete(t, s, fsys.Stopped)
		},
		reference: func(t *testing.T, s *Server) map[string][]byte {
			return map[string][]byte{"journal": merged(t, s)}
		},
		check: func(t *testing.T, at string, s *Server, life int, acked map[string]bool, ref map[string][]byte) {
			leased := leaseAndComplete(t, s, func() bool { return false })
			for shard := range leased {
				if acked[shard] || life > 0 {
					t.Errorf("%s: restart %d re-leased published %s", at, life, shard)
				}
			}
			if got := merged(t, s); !bytes.Equal(got, ref["journal"]) {
				t.Errorf("%s: restart %d: merged journal differs from the uninterrupted run", at, life)
			}
		},
	})
}

// TestRestartSyncsNewFabricDir: a subdirectory first created on a later
// start — the fabric's, on a data directory a plain daemon made — is
// synced into the data directory.
func TestRestartSyncsNewFabricDir(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	fsys, err := durabletest.New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err = newServer(Options{DataDir: dir, Workers: 1, Fabric: &FabricOptions{Exps: []string{"T2"}, Seed: 7, Quick: true}}, fsys)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if points := fsys.Points(); !slices.Contains(points, "syncdir .") {
		t.Errorf("restart crash points %v lack a sync of the data directory", points)
	}
}
