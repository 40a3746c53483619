package fabric

import (
	"fmt"
	"time"
)

// Board is the coordinator-side lease state machine for one sweep: N
// partitions, each walked through pending → leased → done. It is the
// authority behind internal/serve's /v1/lease endpoints.
//
// The board deliberately trusts determinism instead of workers:
//
//   - a partition has at most one live lease; an idle worker that finds
//     every partition leased is told to Wait until the earliest expiry;
//   - an expired lease is simply re-issued (generation bump) — the dead
//     worker's partial journal, if any, merges in harmlessly;
//   - Complete is idempotent, so a superseded holder that resurfaces with
//     the finished shard can still report it.
//
// Board does no locking and never reads the wall clock: callers own both.
// Every method that depends on time takes an explicit now — internal/serve
// passes its (test-fakeable) clock, and the state machine stays
// deterministic for the linter and for replay.
type Board struct {
	parts []partition
	ttl   time.Duration

	reissues int
}

type partState int

const (
	statePending partState = iota
	stateLeased
	stateDone
)

// partition is one unit of leased work.
type partition struct {
	state partState
	// gen counts lease issues for this partition; it salts lease IDs so a
	// zombie holding a superseded lease cannot renew or complete it.
	gen int
	// expiry is when the current gen's lease lapses (extended by Renew).
	expiry time.Time
}

// Lease is one granted unit of work.
type Lease struct {
	// ID is "p<partition>.g<generation>"; renew/complete quote it back.
	ID string
	// Shard is the partition to run.
	Shard Shard
	// Expiry is when the lease lapses unless renewed. With Wait it is
	// the earliest expiry among the live leases: the first instant the
	// board can grant work again without a completion.
	Expiry time.Time
}

// AcquireStatus is the board's answer to an idle worker.
type AcquireStatus int

const (
	// Granted: the returned Lease holds work to run.
	Granted AcquireStatus = iota
	// Wait: every partition not done holds a live lease; retry later.
	Wait
	// Drained: every partition is done; the worker can exit.
	Drained
)

func (s AcquireStatus) String() string {
	switch s {
	case Granted:
		return "lease"
	case Wait:
		return "wait"
	case Drained:
		return "done"
	default:
		return fmt.Sprintf("AcquireStatus(%d)", int(s))
	}
}

// BoardStats is a point-in-time summary.
type BoardStats struct {
	Pending  int `json:"pending"`
	Leased   int `json:"leased"`
	Done     int `json:"done"`
	Reissues int `json:"reissues"`
}

// NewBoard creates a board over count partitions with the given lease TTL.
func NewBoard(count int, ttl time.Duration) (*Board, error) {
	if count < 1 {
		return nil, fmt.Errorf("fabric: board needs >= 1 partition, got %d", count)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("fabric: board needs a positive lease ttl, got %v", ttl)
	}
	return &Board{parts: make([]partition, count), ttl: ttl}, nil
}

// Count returns the number of partitions.
func (b *Board) Count() int { return len(b.parts) }

// TTL returns the lease duration.
func (b *Board) TTL() time.Duration { return b.ttl }

func leaseID(part, gen int) string { return fmt.Sprintf("p%d.g%d", part, gen) }

// PartitionOf resolves a lease ID the board issued, of any generation, to
// its partition; malformed and never-issued IDs are errors. Only the exact
// form the board issues resolves: Sscanf alone would accept trailing
// bytes. It changes nothing, so a coordinator can validate and store an
// upload before Complete marks the partition done.
func (b *Board) PartitionOf(id string) (int, error) {
	var part, gen int
	if n, err := fmt.Sscanf(id, "p%d.g%d", &part, &gen); n != 2 || err != nil || id != leaseID(part, gen) {
		return 0, fmt.Errorf("fabric: malformed lease id %q", id)
	}
	if part < 0 || part >= len(b.parts) {
		return 0, fmt.Errorf("fabric: lease id %q names partition %d of %d", id, part, len(b.parts))
	}
	if gen < 1 || gen > b.parts[part].gen {
		return 0, fmt.Errorf("fabric: lease id %q was never issued", id)
	}
	return part, nil
}

// parseLease resolves a lease ID against the board's current state: the
// partition index if the ID names the live generation, or false for
// malformed, unknown, and superseded IDs alike.
func (b *Board) parseLease(id string) (int, bool) {
	part, err := b.PartitionOf(id)
	return part, err == nil && id == leaseID(part, b.parts[part].gen)
}

// Acquire hands the worker its next unit of work: a pending partition,
// else an expired lease re-issued under a bumped generation. A partition
// whose lease is live is never granted twice; when every partition not
// done is leased, Acquire answers Wait with the earliest live expiry in
// Lease.Expiry, and Drained once all are done. The board records no
// holder, so worker only names the caller.
func (b *Board) Acquire(worker string, now time.Time) (AcquireStatus, Lease) {
	wait, next := false, time.Time{}
	for i := range b.parts {
		p := &b.parts[i]
		switch {
		case p.state == statePending:
			p.state = stateLeased
		case p.state == stateLeased && !now.Before(p.expiry):
			b.reissues++
		case p.state == stateLeased:
			if !wait || p.expiry.Before(next) {
				wait, next = true, p.expiry
			}
			continue
		default:
			continue
		}
		p.gen++
		p.expiry = now.Add(b.ttl)
		return Granted, Lease{ID: leaseID(i, p.gen), Shard: Shard{Index: i, Count: len(b.parts)}, Expiry: p.expiry}
	}
	if wait {
		return Wait, Lease{Expiry: next}
	}
	return Drained, Lease{}
}

// Renew extends a live lease's expiry. It returns false when the lease ID
// no longer names the current generation (expired and re-issued, or the
// partition completed) — the worker should abandon the partition.
func (b *Board) Renew(id string, now time.Time) bool {
	part, ok := b.parseLease(id)
	if !ok || b.parts[part].state != stateLeased {
		return false
	}
	// A lapsed-but-not-reissued lease revives here: no other worker was
	// granted the partition in between, so extending it is safe.
	b.parts[part].expiry = now.Add(b.ttl)
	return true
}

// Complete marks a lease's partition done. The first completion of a
// partition wins; later ones (a re-issued lease's original holder
// resurfacing, a repeated upload) return alreadyDone=true so the caller can
// verify the duplicate bytes instead of storing them. A lease ID from a
// superseded generation still completes its partition: the work is
// deterministic, so a stale worker's finished shard is as good as the
// live one's.
func (b *Board) Complete(id string) (part int, alreadyDone bool, err error) {
	part, err = b.PartitionOf(id)
	if err != nil {
		return 0, false, err
	}
	p := &b.parts[part]
	if p.state == stateDone {
		return part, true, nil
	}
	p.state = stateDone
	return part, false, nil
}

// MarkDone pre-completes a partition — the coordinator calls this on
// restart for shards whose bytes it already persisted.
func (b *Board) MarkDone(part int) error {
	if part < 0 || part >= len(b.parts) {
		return fmt.Errorf("fabric: partition %d outside [0,%d)", part, len(b.parts))
	}
	b.parts[part].state = stateDone
	return nil
}

// Drained reports whether every partition is done.
func (b *Board) Drained() bool {
	for i := range b.parts {
		if b.parts[i].state != stateDone {
			return false
		}
	}
	return true
}

// Stats summarizes the board.
func (b *Board) Stats() BoardStats {
	s := BoardStats{Reissues: b.reissues}
	for i := range b.parts {
		switch b.parts[i].state {
		case statePending:
			s.Pending++
		case stateLeased:
			s.Leased++
		case stateDone:
			s.Done++
		}
	}
	return s
}
