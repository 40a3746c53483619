package fabric

import (
	"testing"
	"time"
)

// clock returns successive instants without touching the wall clock: the
// board takes explicit times, so tests drive it with a counter.
func at(sec int) time.Time {
	return time.Date(2026, 1, 1, 0, 0, sec, 0, time.UTC)
}

func TestNewBoardValidation(t *testing.T) {
	if _, err := NewBoard(0, time.Second); err == nil {
		t.Fatal("0 partitions accepted")
	}
	if _, err := NewBoard(2, 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
}

// Happy path: two workers drain two partitions, no reissues.
func TestBoardLifecycle(t *testing.T) {
	b, err := NewBoard(2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, l1 := b.Acquire("w1", at(0))
	if st != Granted || l1.Shard != (Shard{0, 2}) {
		t.Fatalf("first acquire: %v %+v", st, l1)
	}
	st, l2 := b.Acquire("w2", at(0))
	if st != Granted || l2.Shard != (Shard{1, 2}) {
		t.Fatalf("second acquire: %v %+v", st, l2)
	}
	if !b.Renew(l1.ID, at(5)) {
		t.Fatal("renew of live lease refused")
	}
	if _, dup, err := b.Complete(l1.ID); err != nil || dup {
		t.Fatalf("complete l1: dup=%v err=%v", dup, err)
	}
	if _, dup, err := b.Complete(l2.ID); err != nil || dup {
		t.Fatalf("complete l2: dup=%v err=%v", dup, err)
	}
	if st, _ := b.Acquire("w1", at(6)); st != Drained {
		t.Fatalf("drained board answered %v", st)
	}
	if !b.Drained() {
		t.Fatal("Drained() false after all completions")
	}
	s := b.Stats()
	if s.Done != 2 || s.Reissues != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// A lease that expires un-renewed is re-issued to the next worker, and
// the zombie's old lease ID can no longer renew — but its completion
// still counts (determinism makes its bytes as good as anyone's).
func TestBoardExpiryReissue(t *testing.T) {
	b, _ := NewBoard(1, 10*time.Second)
	_, dead := b.Acquire("w1", at(0))
	if st, _ := b.Acquire("w1", at(5)); st != Wait {
		t.Fatal("holder re-acquired its own live lease before expiry")
	}
	st, release := b.Acquire("w2", at(11))
	if st != Granted || release.Shard != (Shard{0, 1}) {
		t.Fatalf("expired lease not re-issued: %v %+v", st, release)
	}
	if b.Renew(dead.ID, at(12)) {
		t.Fatal("superseded lease renewed")
	}
	if !b.Renew(release.ID, at(12)) {
		t.Fatal("live re-issued lease refused renewal")
	}
	if _, dup, err := b.Complete(dead.ID); err != nil || dup {
		t.Fatalf("zombie completion rejected: dup=%v err=%v", dup, err)
	}
	if _, dup, err := b.Complete(release.ID); err != nil || !dup {
		t.Fatalf("second completion not flagged duplicate: dup=%v err=%v", dup, err)
	}
	if s := b.Stats(); s.Reissues != 1 || s.Done != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// The board never steals: no worker, the holder included, is granted a
// copy of a live lease. Each is told to Wait until the holder's expiry,
// the holder's completion is the only one, and the board then drains.
func TestBoardSteal(t *testing.T) {
	b, _ := NewBoard(1, 10*time.Second)
	_, orig := b.Acquire("w1", at(0))
	for _, w := range []string{"w1", "w2", "w3"} {
		st, wait := b.Acquire(w, at(1))
		if st != Wait || wait.ID != "" || !wait.Expiry.Equal(orig.Expiry) {
			t.Fatalf("%s acquired while the lease is live: %v %+v, want Wait until %v", w, st, wait, orig.Expiry)
		}
	}
	if _, dup, err := b.Complete(orig.ID); err != nil || dup {
		t.Fatalf("holder completion: dup=%v err=%v", dup, err)
	}
	if st, _ := b.Acquire("w2", at(2)); st != Drained {
		t.Fatalf("acquire after the only completion: %v, want Drained", st)
	}
	if s := b.Stats(); s.Done != 1 || s.Leased != 0 || s.Reissues != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// The oldest lease is the one an idle worker waits for: Wait carries the
// earliest live expiry, and once it passes that partition is re-issued.
func TestBoardStealPicksOldest(t *testing.T) {
	b, _ := NewBoard(2, 10*time.Second)
	_, l0 := b.Acquire("w1", at(0))
	if _, l1 := b.Acquire("w2", at(3)); l1.Shard.Index != 1 {
		t.Fatalf("setup: %+v", l1)
	}
	st, wait := b.Acquire("w3", at(4))
	if st != Wait || wait.ID != "" || !wait.Expiry.Equal(l0.Expiry) {
		t.Fatalf("acquire while both leases live: %v %+v, want Wait until %v", st, wait, l0.Expiry)
	}
	st, release := b.Acquire("w3", wait.Expiry)
	if st != Granted || release.Shard.Index != 0 || release.ID == l0.ID {
		t.Fatalf("acquire at the earliest expiry: %v %+v, want partition 0 re-issued", st, release)
	}
	if st, wait := b.Acquire("w3", at(11)); st != Wait || !wait.Expiry.Equal(at(13)) {
		t.Fatalf("acquire after the re-issue: %v %+v, want Wait until %v", st, wait, at(13))
	}
	if s := b.Stats(); s.Reissues != 1 || s.Leased != 2 {
		t.Fatalf("stats %+v", s)
	}
}

// A lease ID with bytes after the issued form names no lease: on a
// one-partition board, completing it must neither succeed nor drain the
// board, while the issued ID still completes.
func TestBoardRejectsTrailingJunk(t *testing.T) {
	b, _ := NewBoard(1, time.Second)
	_, l := b.Acquire("w1", at(0))
	for _, id := range []string{l.ID + "junk", l.ID + " ", "p00.g1", "p0.g01"} {
		if _, err := b.PartitionOf(id); err == nil {
			t.Errorf("PartitionOf(%q) accepted", id)
		}
		if _, _, err := b.Complete(id); err == nil {
			t.Errorf("Complete(%q) accepted", id)
		}
	}
	if b.Drained() {
		t.Fatal("a junk lease id drained the board")
	}
	if _, _, err := b.Complete(l.ID); err != nil || !b.Drained() {
		t.Fatalf("Complete(%q): %v, drained %v", l.ID, err, b.Drained())
	}
}

func TestBoardCompleteErrors(t *testing.T) {
	b, _ := NewBoard(2, time.Second)
	if _, _, err := b.Complete("garbage"); err == nil {
		t.Fatal("malformed lease id accepted")
	}
	if _, _, err := b.Complete("p9.g1"); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if _, _, err := b.Complete("p0.g1"); err == nil {
		t.Fatal("never-issued lease accepted")
	}
	_, l := b.Acquire("w1", at(0))
	if part, dup, err := b.Complete(l.ID); err != nil || dup || part != 0 {
		t.Fatalf("complete: part=%d dup=%v err=%v", part, dup, err)
	}
}

// PartitionOf resolves every generation issued so far, marks nothing
// done, and rejects what Complete rejects.
func TestBoardPartitionOf(t *testing.T) {
	b, _ := NewBoard(2, time.Second)
	b.Acquire("w1", at(0))
	_, dead := b.Acquire("w1", at(0))
	_, release := b.Acquire("w2", at(2))
	if dead.Shard.Index != 1 || release.Shard.Index != 0 {
		t.Fatalf("leases %+v %+v", dead, release)
	}
	_, release = b.Acquire("w2", at(2))
	if release.Shard.Index != 1 || release.ID == dead.ID {
		t.Fatalf("re-issue %+v of %+v", release, dead)
	}
	for _, id := range []string{dead.ID, release.ID} {
		if part, err := b.PartitionOf(id); err != nil || part != 1 {
			t.Fatalf("PartitionOf(%s) = %d, %v", id, part, err)
		}
	}
	if s := b.Stats(); s.Done != 0 {
		t.Fatalf("PartitionOf marked a partition done: %+v", s)
	}
	for _, id := range []string{"garbage", "p9.g1", "p1.g3"} {
		if _, err := b.PartitionOf(id); err == nil {
			t.Errorf("PartitionOf(%q) accepted", id)
		}
	}
}

func TestBoardMarkDone(t *testing.T) {
	b, _ := NewBoard(2, time.Second)
	if err := b.MarkDone(1); err != nil {
		t.Fatal(err)
	}
	if err := b.MarkDone(5); err == nil {
		t.Fatal("out-of-range MarkDone accepted")
	}
	st, l := b.Acquire("w1", at(0))
	if st != Granted || l.Shard.Index != 0 {
		t.Fatalf("acquire after MarkDone(1): %v %+v", st, l)
	}
	if _, _, err := b.Complete(l.ID); err != nil {
		t.Fatal(err)
	}
	if !b.Drained() {
		t.Fatal("board not drained after MarkDone + complete")
	}
}
