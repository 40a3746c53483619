package sim

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
)

// Unit is a keyed Monte-Carlo task whose replicas are not engine runs:
// replica i's record is Run(i), a pure function of (Key, i), called
// concurrently for distinct i. A journal stores each record, encoded as
// JSON (so floats must be finite), as the result of one line. Key
// describes every input of Run but i; like TaskKey it leaves out
// Replicas, so the journal of a shorter run stays a valid prefix. The
// Observer, if non-nil, gets a ReplicaStart and a matching ReplicaDone
// (with zero rounds) for every replica run, and a Checkpoint per record.
type Unit[R any] struct {
	Name     string
	Key      string
	Replicas int
	Run      func(i int) (R, error)
	Observer Observer
}

// RunUnit runs u's replicas as RunContext runs a Task's, one replica per
// batch, and returns their records in replica order; a replica another
// partition owns keeps R's zero value. ctx is checked before each replica,
// and a record finished after ctx ended is dropped, not journaled. A
// replica that fails or panics fails the unit, after the others ran.
func RunUnit[R any](ctx context.Context, u Unit[R], workers int, journal *Journal) ([]R, error) {
	if err := u.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &replicaSet[R]{name: u.Name, key: unitKey(u), ctx: ctx, journal: journal, obsv: u.Observer,
		stopped: func(R) bool { return ctx.Err() != nil },
		report:  func(i int, _ R, st ReplicaState) { u.Observer.ReplicaDone(u.Name, i, 0, false, st.String()) }}
	s.run(u.Replicas, workers, 1, func(sub []int) ([]R, error) {
		if ctx.Err() != nil {
			return make([]R, 1), nil
		}
		r, err := u.Run(sub[0])
		return []R{r}, err
	})
	if s.journalErr != nil {
		return s.recs, fmt.Errorf("sim: unit %q: %w", u.Name, s.journalErr)
	}
	for i, err := range s.errs {
		if err != nil {
			return s.recs, fmt.Errorf("sim: unit %q replica %d: %w", u.Name, i, err)
		}
	}
	return s.recs, ctx.Err()
}

// unitKey is u's journal key, in TaskKey's form.
func unitKey[R any](u Unit[R]) string {
	h := fnv.New64a()
	fmt.Fprint(h, u.Key)
	return fmt.Sprintf("%s#%016x", u.Name, h.Sum64())
}

// validate rejects a unit without a Run or with a negative replica count.
func (u Unit[R]) validate() error {
	if u.Replicas < 0 || u.Run == nil {
		return fmt.Errorf("sim: unit %q needs a Run and no negative replica count (has %d)", u.Name, u.Replicas)
	}
	return nil
}

// replicaSet is the scheduler's state for one task or unit. stopped
// reports whether a record was cut short (by ctx, or a task's own Halt);
// report sends a filed replica's ReplicaDone (and a task's Recovery) to
// the non-nil Observer. Workers write disjoint replica slots, so only the
// first checkpoint failure needs the lock.
type replicaSet[R any] struct {
	name, key  string
	ctx        context.Context
	journal    *Journal
	obsv       Observer
	recs       []R
	states     []ReplicaState
	errs       []error
	stopped    func(R) bool
	report     func(i int, r R, st ReplicaState)
	mu         sync.Mutex
	journalErr error
}

// run is the one replica scheduler under RunContext and RunUnit. It
// allocates the set's replica slots, registers the key's ordinal (every shard of a partitioned sweep sees
// every task and unit, so ordinals agree across shards), decodes the
// replicas checkpointed under the key, marks those another partition owns
// Skipped, and cuts the rest into in-order batches of at most width
// (<= 0: no cap), at least one per worker. At most workers goroutines
// (<= 0: GOMAXPROCS) pull them from one queue filled before any starts.
func (s *replicaSet[R]) run(replicas, workers, width int, batch func(sub []int) ([]R, error)) {
	s.recs, s.states, s.errs = make([]R, replicas), make([]ReplicaState, replicas), make([]error, replicas)
	owns := s.journal.beginTask(s.key)
	var pending []int
	for i := range s.recs {
		switch {
		case s.journal.lookup(s.key, i, &s.recs[i]):
		case !owns(i):
			s.states[i] = Skipped
		default:
			pending = append(pending, i)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if width <= 0 {
		width = max(len(pending), 1)
	}
	subs := batches(pending, workers, width)
	next := make(chan []int, len(subs))
	for _, sub := range subs {
		next <- sub
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(subs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sub := range next {
				//bitlint:taintdet the worker count only sizes the batches; a batch reproduces each replica's solo run, so no record depends on it (TestRunDeterministicAcrossWorkerCounts, TestUnitWorkerCountInvariant)
				s.runBatch(batch, sub)
			}
		}()
	}
	wg.Wait()
}

// batches cuts pending into in-order lockstep batches of even size, at
// least one per worker, so every worker has work, and each at most width
// replicas.
func batches(pending []int, workers, width int) [][]int {
	nb := max(min(workers, len(pending)), (len(pending)+width-1)/width)
	subs := make([][]int, nb)
	for k := range subs {
		subs[k] = pending[k*len(pending)/nb : (k+1)*len(pending)/nb]
	}
	return subs
}

// runBatch runs the replicas sub as one batch and files each record. A
// panic poisons a batch's shared state, so a batch that fails reruns each
// replica alone — bit-identical to its solo run by the engines' batch
// contracts — and only a replica that fails on its own is lost.
func (s *replicaSet[R]) runBatch(batch func(sub []int) ([]R, error), sub []int) {
	if s.obsv != nil {
		for _, i := range sub {
			// A batch advances in lockstep, so its replicas all start
			// when it does.
			s.obsv.ReplicaStart(s.name, i)
		}
	}
	rs, err := recovered(batch, sub)
	for k, i := range sub {
		r, rerr := rs[k], err
		if err != nil && len(sub) > 1 {
			one, oerr := recovered(batch, sub[k:k+1])
			r, rerr = one[0], oerr
		}
		s.file(i, r, rerr)
	}
}

// recovered calls batch, converting a panic into an error so a corrupted
// replica cannot take down the sweep. A failed batch reports zero records.
func recovered[R any](batch func(sub []int) ([]R, error), sub []int) (rs []R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replica panicked: %v", r)
		}
		if err != nil {
			rs = make([]R, len(sub))
		}
	}()
	return batch(sub)
}

// file records how replica i ended: failed, cut short (kept, never
// journaled), or finished and journaled.
func (s *replicaSet[R]) file(i int, r R, err error) {
	switch {
	case err != nil:
		s.states[i], s.errs[i] = Failed, err
	case s.stopped(r):
		s.states[i], s.recs[i] = Cancelled, r
		if s.ctx.Err() == context.DeadlineExceeded {
			s.states[i] = TimedOut
		}
	default:
		s.recs[i] = r
		if s.journal == nil {
			break
		}
		if jerr := s.journal.record(s.key, i, r); jerr != nil {
			s.mu.Lock()
			s.journalErr = cmp.Or(s.journalErr, jerr)
			s.mu.Unlock()
		} else if s.obsv != nil {
			s.obsv.Checkpoint(s.name, i)
		}
	}
	if s.obsv != nil {
		s.report(i, r, s.states[i])
	}
}
