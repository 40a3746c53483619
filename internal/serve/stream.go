package serve

import (
	"slices"
	"sync"
	"sync/atomic"

	"bitspread/internal/obs"
)

// Event is one NDJSON line of a job's event stream. Round events come
// from the engine probe (shared across the job's replicas, so rounds of
// concurrent replicas interleave); replica lifecycle events come from the
// sim observer; "job_done" is the terminal line every stream ends with.
type Event struct {
	Type string `json:"type"` // round, fault, replica_start, replica_done, checkpoint, recovery, job_done
	// Round is the 1-based round index for round/fault events, or the
	// rounds count for replica_done/recovery events.
	Round int64 `json:"round,omitempty"`
	// Ones and Sampled carry the one-count and activation count of round
	// events.
	Ones    int64 `json:"ones,omitempty"`
	Sampled int64 `json:"sampled,omitempty"`
	// Replica identifies replica-scoped events.
	Replica int `json:"replica,omitempty"`
	// Converged and State describe replica_done events; State also carries
	// the job's terminal state on job_done.
	Converged bool   `json:"converged,omitempty"`
	State     string `json:"state,omitempty"`
	// Dropped reports, on the job_done line, how many events this
	// subscriber lost to backpressure (slow consumers shed load rather
	// than stall the simulation).
	Dropped int64 `json:"dropped,omitempty"`
}

// subscriber is one event-stream client. Its queue is bounded; a full
// queue drops the event and counts it — the hub never blocks a
// simulation on a slow reader.
type subscriber struct {
	// ready holds a token while events wait in queue or the stream has
	// ended; the reader waits on it, then takes the whole queue at once.
	ready   chan struct{}
	limit   int // most events the queue holds
	dropped atomic.Int64

	// Guarded by the hub's mu.
	queue  []Event
	closed bool
}

// push queues ev, or drops and counts it when the queue is full. The
// reader is woken only when the queue was empty: otherwise it is already
// woken, or busy and will take the queue next. The caller holds the
// hub's mu.
func (sub *subscriber) push(ev Event) {
	if len(sub.queue) == sub.limit {
		sub.dropped.Add(1)
		return
	}
	sub.queue = append(sub.queue, ev)
	if len(sub.queue) == 1 {
		sub.wake()
	}
}

// wake leaves a token on ready unless one is there already.
func (sub *subscriber) wake() {
	select {
	case sub.ready <- struct{}{}:
	default:
	}
}

// hub fans a job's probe/observer events out to its stream subscribers.
// It implements both the engine probe contract (RoundDone, FaultApplied,
// ShardRound) and the sim observer contract (ReplicaStart, ReplicaDone,
// Checkpoint, Recovery) so one value serves as Config.Probe and
// Task.Observer. Publishing a round with no subscribers is a single
// atomic load — no Event is even built — so jobs nobody watches pay
// essentially nothing per round. Drops are counted per subscriber and
// added to the server-wide counter once, when the subscriber leaves or
// the hub closes, so a publishing round writes only the job's own memory.
type hub struct {
	nsubs   atomic.Int32
	dropped *obs.Counter // server-wide drop counter; nil-safe

	mu      sync.Mutex
	subs    []*subscriber
	closed  bool
	finalEv Event
}

// newHub builds a hub; dropped may be nil.
func newHub(dropped *obs.Counter) *hub {
	return &hub{dropped: dropped}
}

// watched reports whether the hub has subscribers; the per-round
// publishers check it before building an Event.
func (h *hub) watched() bool { return h.nsubs.Load() > 0 }

// subscribe registers a new stream client whose queue holds up to buffer
// events. On a hub that already closed, the stream is over at once and
// finalEvent() carries the terminal event, so late subscribers still get
// a well-formed stream.
func (h *hub) subscribe(buffer int) *subscriber {
	sub := &subscriber{ready: make(chan struct{}, 1), limit: buffer}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		sub.closed = true
		sub.wake()
		return sub
	}
	h.subs = append(h.subs, sub)
	h.nsubs.Store(int32(len(h.subs)))
	return sub
}

// unsubscribe removes a client and books its drops. A client close
// already removed is left alone, so its drops are booked exactly once.
func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i := slices.Index(h.subs, sub); i >= 0 {
		h.subs = slices.Delete(h.subs, i, i+1)
		h.nsubs.Store(int32(len(h.subs)))
		h.dropped.Add(sub.dropped.Load())
	}
}

// take hands the reader every event queued for sub, oldest first, and
// reports whether more may follow; once it reports false the stream has
// ended and finalEvent() is set. spare, emptied, becomes sub's next
// queue, so a reader that hands back each batch it has written
// allocates nothing.
func (h *hub) take(sub *subscriber, spare []Event) (batch []Event, open bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	batch, sub.queue = sub.queue, spare[:0]
	return batch, !sub.closed
}

// publish fans one event out, dropping per-subscriber when a queue is
// full. A closed hub has no subscribers left, so publishing after close
// is a no-op.
func (h *hub) publish(ev Event) {
	h.mu.Lock()
	for _, sub := range h.subs {
		sub.push(ev)
	}
	h.mu.Unlock()
}

// close ends the stream: the terminal event is stored for finalEvent(),
// every subscriber is told the stream is over and every subscriber's
// drops are booked. Idempotent.
func (h *hub) close(final Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	h.finalEv = final
	for _, sub := range h.subs {
		sub.closed = true
		sub.wake()
		h.dropped.Add(sub.dropped.Load())
	}
	h.subs = nil
	h.nsubs.Store(0)
}

// finalEvent returns the terminal event (zero until close).
func (h *hub) finalEvent() Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.finalEv
}

// RoundDone implements the engine probe contract.
func (h *hub) RoundDone(round, ones, sampled int64) {
	if h.watched() {
		h.publish(Event{Type: "round", Round: round, Ones: ones, Sampled: sampled})
	}
}

// FaultApplied implements the engine probe contract.
func (h *hub) FaultApplied(round int64) {
	if h.watched() {
		h.publish(Event{Type: "fault", Round: round})
	}
}

// ShardRound implements the engine probe contract; shard load is a
// metrics concern, not a stream one.
func (h *hub) ShardRound(shard int, sampled int64) {}

// ReplicaStart implements the sim observer contract.
func (h *hub) ReplicaStart(task string, replica int) {
	h.publish(Event{Type: "replica_start", Replica: replica})
}

// ReplicaDone implements the sim observer contract.
func (h *hub) ReplicaDone(task string, replica int, rounds int64, converged bool, state string) {
	h.publish(Event{Type: "replica_done", Replica: replica, Round: rounds, Converged: converged, State: state})
}

// Checkpoint implements the sim observer contract.
func (h *hub) Checkpoint(task string, replica int) {
	h.publish(Event{Type: "checkpoint", Replica: replica})
}

// Recovery implements the sim observer contract.
func (h *hub) Recovery(task string, replica int, rounds int64) {
	h.publish(Event{Type: "recovery", Replica: replica, Round: rounds})
}
