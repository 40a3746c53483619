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
//   - an expired lease is simply re-issued (generation bumped) — the dead
//     worker's partial journal, if any, merges in harmlessly;
//   - when no partition is pending or expired but some are still leased,
//     an idle worker gets a speculative duplicate lease on a straggler
//     (work stealing); whichever copy completes first wins, the loser's
//     bytes are verified identical and dropped;
//   - Complete is idempotent, so the thief and the victim can both report.
//
// Board does no locking and never reads the wall clock: callers own both.
// Every method that depends on time takes an explicit now — internal/serve
// passes its (test-fakeable) clock, and the state machine stays
// deterministic for the linter and for replay.
type Board struct {
	parts []partition
	ttl   time.Duration

	reissues int
	steals   int
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
	// holders are the workers holding a live gen lease (victim + thieves).
	holders []string
	// expiry is when the current gen's leases lapse (extended by Renew).
	expiry time.Time
	// stolen marks that the current gen already has a speculative
	// duplicate, bounding steals to one live copy per straggler.
	stolen bool
}

// Lease is one granted unit of work.
type Lease struct {
	// ID is "p<partition>.g<generation>"; renew/complete quote it back.
	ID string
	// Shard is the partition to run.
	Shard Shard
	// Expiry is when the lease lapses unless renewed.
	Expiry time.Time
	// Stolen marks a speculative duplicate of a straggler's lease.
	Stolen bool
}

// AcquireStatus is the board's answer to an idle worker.
type AcquireStatus int

const (
	// Granted: the returned Lease holds work to run.
	Granted AcquireStatus = iota
	// Wait: everything is leased and stealing is exhausted; retry later.
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
	Steals   int `json:"steals"`
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

// parseLease resolves a lease ID against the board's current state: the
// partition index if the ID names the live generation, or false for
// malformed, unknown, and superseded IDs alike.
func (b *Board) parseLease(id string) (int, bool) {
	var part, gen int
	if n, err := fmt.Sscanf(id, "p%d.g%d", &part, &gen); n != 2 || err != nil {
		return 0, false
	}
	if part < 0 || part >= len(b.parts) {
		return 0, false
	}
	if b.parts[part].gen != gen {
		return 0, false
	}
	return part, true
}

// Acquire hands the worker its next unit of work. Priority order: a
// pending partition, then an expired lease (re-issue, generation bump),
// then a speculative steal of the longest-expiring straggler, else
// Wait/Drained.
func (b *Board) Acquire(worker string, now time.Time) (AcquireStatus, Lease) {
	// Pass 1: pending or expired work — a fresh generation either way.
	for i := range b.parts {
		p := &b.parts[i]
		switch {
		case p.state == statePending:
			p.state = stateLeased
		case p.state == stateLeased && !now.Before(p.expiry):
			b.reissues++
		default:
			continue
		}
		p.gen++
		p.holders = append(p.holders[:0], worker)
		p.expiry = now.Add(b.ttl)
		p.stolen = false
		return Granted, Lease{ID: leaseID(i, p.gen), Shard: Shard{Index: i, Count: len(b.parts)}, Expiry: p.expiry}
	}
	// Pass 2: steal — duplicate a live straggler lease for the idle
	// worker. Same generation: both copies may complete, merge dedups.
	steal := -1
	for i := range b.parts {
		p := &b.parts[i]
		if p.state != stateLeased || p.stolen || holds(p.holders, worker) {
			continue
		}
		if steal < 0 || p.expiry.Before(b.parts[steal].expiry) {
			steal = i
		}
	}
	if steal >= 0 {
		p := &b.parts[steal]
		p.stolen = true
		p.holders = append(p.holders, worker)
		b.steals++
		return Granted, Lease{ID: leaseID(steal, p.gen), Shard: Shard{Index: steal, Count: len(b.parts)}, Expiry: p.expiry, Stolen: true}
	}
	for i := range b.parts {
		if b.parts[i].state != stateDone {
			return Wait, Lease{}
		}
	}
	return Drained, Lease{}
}

func holds(holders []string, worker string) bool {
	for _, h := range holders {
		if h == worker {
			return true
		}
	}
	return false
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
// partition wins; later ones (a stolen duplicate, a re-issued lease's
// original holder resurfacing) return alreadyDone=true so the caller can
// verify the duplicate bytes instead of storing them. A lease ID from a
// superseded generation still completes its partition: the work is
// deterministic, so a stale worker's finished shard is as good as the
// live one's.
func (b *Board) Complete(id string) (part int, alreadyDone bool, err error) {
	var gen int
	if n, serr := fmt.Sscanf(id, "p%d.g%d", &part, &gen); n != 2 || serr != nil {
		return 0, false, fmt.Errorf("fabric: malformed lease id %q", id)
	}
	if part < 0 || part >= len(b.parts) {
		return 0, false, fmt.Errorf("fabric: lease id %q names partition %d of %d", id, part, len(b.parts))
	}
	if gen < 1 || gen > b.parts[part].gen {
		return 0, false, fmt.Errorf("fabric: lease id %q was never issued", id)
	}
	p := &b.parts[part]
	if p.state == stateDone {
		return part, true, nil
	}
	p.state = stateDone
	p.holders = nil
	return part, false, nil
}

// MarkDone pre-completes a partition — the coordinator calls this on
// restart for shards whose bytes it already persisted.
func (b *Board) MarkDone(part int) error {
	if part < 0 || part >= len(b.parts) {
		return fmt.Errorf("fabric: partition %d outside [0,%d)", part, len(b.parts))
	}
	b.parts[part].state = stateDone
	b.parts[part].holders = nil
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
	s := BoardStats{Reissues: b.reissues, Steals: b.steals}
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
