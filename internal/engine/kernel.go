package engine

import (
	"math/bits"

	"bitspread/internal/rng"
)

// This file is the round kernel of the bitset agent engine. It rests on
// the per-agent reduction of Eq. 4 (Prop 5): conditioned on the one-count
// x an agent samples from, its ℓ draws with replacement see k ~
// Binomial(ℓ, x/n) ones, so its next opinion is Bernoulli(P_b(x/n)) —
// P_b = Rule.AdoptProb(b, ·), b its current opinion — independently of
// every other agent. A round therefore samples no indices at all: it
// flips one coin per agent, against one of two thresholds chosen by the
// agent's own bit, and those coins are flipped 64 at a time.
//
// The coins are bit-sliced: each word of the stream supplies the next bit
// of all 64 lanes' uniforms at once, and the lanes are compared with their
// thresholds most significant bit first. A lane is decided at the first
// bit where its uniform and its threshold differ, or as soon as no 1 of
// its threshold remains, so a word of 64 agents costs about log₂64 + 1.3
// ≈ 7 random words on average instead of 64, and fewer when thresholds
// have short binary expansions (p = 1/2 takes one). The uniforms are the
// 53-bit ones of rng.Float64, so a lane succeeds exactly when
// Float64() < p would: P = ⌈p·2⁵³⌉/2⁵³, the granularity at which
// rng.Bernoulli and rng.Binomial resolve probabilities everywhere in the
// repo. Which lanes happen to be decided late only decides how many words
// are drawn, never which bits a lane reads, so the lanes stay independent.

// streamWords is the block length of a wordStream refill.
const streamWords = 1024

// wordStream carries a generator's output as a block of raw words,
// refilled through rng.FillUint64, which keeps the xoshiro state in
// registers for the whole block. Words are consumed strictly in order and
// the block is refilled only when exhausted, so what a consumer reads
// does not depend on how its work is cut into calls.
type wordStream struct {
	g   *rng.RNG
	buf [streamWords]uint64
	pos int
}

func newWordStream(g *rng.RNG) *wordStream {
	return &wordStream{g: g, pos: streamWords}
}

// next returns the stream's next word.
func (s *wordStream) next() uint64 {
	if s.pos == streamWords {
		s.g.FillUint64(s.buf[:])
		s.pos = 0
	}
	u := s.buf[s.pos]
	s.pos++
	return u
}

// below returns a uniform value in [0, bound) by Lemire's multiply-shift
// with rejection, exact for any bound below 2⁶⁴.
func (s *wordStream) below(bound uint64) uint64 {
	hi, lo := bits.Mul64(s.next(), bound)
	if lo < bound {
		rej := -bound % bound
		for lo < rej {
			hi, lo = bits.Mul64(s.next(), bound)
		}
	}
	return hi
}

// coin is one Bernoulli(p) trial prepared for bit-sliced evaluation. A
// lane succeeds when its uniform is below t = rng.BernoulliThreshold(p) =
// ⌈p·2⁵³⌉·2¹¹, whose low 11 bits are zero, so only the 53 high bits of a
// uniform are ever compared; the sentinels p ≤ 0 and p ≥ 1 are decided
// without drawing.
type coin struct {
	t      uint64 // the threshold; 0 for the sentinels
	always uint64 // all ones when p ≥ 1, else 0
	draws  uint64 // all ones when lanes must draw (t ≠ 0), else 0
}

// newCoin prepares the trial whose rng.BernoulliThreshold is thr.
func newCoin(thr uint64) coin {
	switch thr {
	case 0:
		return coin{}
	case rng.BernoulliAlways:
		return coin{always: ^uint64(0)}
	}
	return coin{t: thr, draws: ^uint64(0)}
}

// draw flips the coins of the lanes set in und at once and returns the
// lanes that succeed: a lane set in sel flips c1, any other lane c0.
func (s *wordStream) draw(und, sel uint64, c0, c1 *coin) uint64 {
	win := und & (sel&c1.always | ^sel&c0.always)
	und &= sel&c1.draws | ^sel&c0.draws
	if und == 0 {
		return win
	}
	// This is the engine's innermost loop, about 7 iterations per 64
	// agents: the cursor lives in a local, and each threshold shifts left
	// as it is consumed, so the bit under comparison is its sign bit and
	// "no 1 remains" is "zero".
	t0, t1 := c0.t, c1.t
	pos := s.pos
	for und != 0 {
		if pos == streamWords {
			s.g.FillUint64(s.buf[:])
			pos = 0
		}
		u := s.buf[pos]
		pos++
		tb := sel&uint64(int64(t1)>>63) | ^sel&uint64(int64(t0)>>63) // each lane's threshold bit
		t0, t1 = t0<<1, t1<<1
		win |= und & tb &^ u
		und &^= tb ^ u
		if t0 == 0 {
			und &= sel
		}
		if t1 == 0 {
			und &^= sel
		}
	}
	s.pos = pos
	return win
}

// roundLaw is one round's per-agent law: an updating agent with opinion b
// adopts 1 by adopt[b], and any free agent loses its update by omit.
type roundLaw struct {
	adopt [2]coin
	omit  coin
}

// lanesFrom returns the lanes of the word whose lane 0 is agent base that
// hold agents with index at least i.
func lanesFrom(base, i int64) uint64 {
	switch d := i - base; {
	case d <= 0:
		return ^uint64(0)
	case d >= 64:
		return 0
	default:
		return ^uint64(0) << uint(d)
	}
}

// stepWords advances agents [lo, hi) one round, where cur and next are one
// chunk's words and base is the global index of the chunk's first agent.
// Agents below pinnedEnd are stubborn and keep their opinion; the others
// first flip the omission coin, and those whose update survives flip the
// adoption coin of their current bit. Lanes outside [lo, hi) are written
// as zero: [lo, hi) covers whole words except for the coordinator-owned
// source bit and the tail past n. It returns the ones written and the
// number of agents that updated.
func stepWords(s *wordStream, cur, next []uint64, base, lo, hi, pinnedEnd int64, law *roundLaw) (ones, updated int64) {
	for wi := (lo - base) >> 6; wi <= (hi-1-base)>>6; wi++ {
		first := base + wi<<6
		in := lanesFrom(first, lo) &^ lanesFrom(first, hi)
		free := in & lanesFrom(first, pinnedEnd)
		c := cur[wi]
		upd := free &^ s.draw(free, c, &law.omit, &law.omit)
		nw := c&in&^upd | s.draw(upd, c, &law.adopt[0], &law.adopt[1])
		next[wi] = nw
		ones += int64(bits.OnesCount64(nw))
		updated += int64(bits.OnesCount64(upd))
	}
	return ones, updated
}
