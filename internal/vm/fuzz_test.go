package vm_test

import (
	"errors"
	"testing"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/vm"
)

// FuzzVMEquivalence is the differential contract behind Compile: any rule
// whose tables lie on the fixed-point grid must survive the full
// compile → encode → decode → materialize round trip with every (b,k)
// PMF entry bit-identical. Tables are drawn from the fuzzed seed and
// projected onto the grid with Quantize, exactly as the evolutionary
// mutators keep their genomes exact.
func FuzzVMEquivalence(f *testing.F) {
	f.Add(uint8(1), uint64(1))
	f.Add(uint8(3), uint64(0xDEADBEEF))
	f.Add(uint8(8), uint64(1)<<40)
	f.Fuzz(func(t *testing.T, ellByte uint8, seed uint64) {
		ell := int(ellByte)%8 + 1
		g := rng.New(seed)
		g0 := make([]float64, ell+1)
		g1 := make([]float64, ell+1)
		for k := range g0 {
			g0[k] = vm.Quantize(g.Float64())
			g1[k] = vm.Quantize(g.Float64())
		}
		rule, err := protocol.New("fuzz", ell, g0, g1)
		if err != nil {
			t.Fatalf("quantized table rejected: %v", err)
		}
		prog, err := vm.Compile(rule)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		decoded, err := vm.Decode(prog.Encode())
		if err != nil {
			t.Fatalf("Decode(Encode): %v", err)
		}
		back, err := decoded.Materialize()
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		h0, h1 := back.Tables()
		for k := range g0 {
			//bitlint:floatexact the differential contract is bit-exact PMF reproduction
			if h0[k] != g0[k] || h1[k] != g1[k] {
				t.Fatalf("ℓ=%d seed=%#x: entry k=%d moved: g0 %v->%v, g1 %v->%v",
					ell, seed, k, g0[k], h0[k], g1[k], h1[k])
			}
		}
	})
}

// FuzzProgramTotality feeds arbitrary bytes to the validator: anything it
// accepts must evaluate deterministically on every input cell — same
// value or the same typed resource error twice — and a successful
// materialization must be a well-formed rule. This is the safety story
// for POST /v1/protocols: validation is the only gate untrusted bytecode
// passes before an engine runs it.
func FuzzProgramTotality(f *testing.F) {
	voter, err := vm.Assemble("ell 3\nfrac\nhalt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(3), uint64(7), voter.Code)
	f.Add(uint8(1), uint64(1), []byte{0x40, 0xff, 0xfd}) // jmp self: gas bomb
	f.Add(uint8(2), uint64(2), []byte{0x06, 0x00})       // tbl halt
	f.Fuzz(func(t *testing.T, ellByte uint8, poolSeed uint64, code []byte) {
		ell := int(ellByte)%vm.MaxEll + 1
		g := rng.New(poolSeed)
		pool := make([]int64, 2*(ell+1))
		for i := range pool {
			v, _ := vm.FromFloat(g.Float64()*8 - 4) // spans the whole Q2.61 range
			pool[i] = v
		}
		p := &vm.Program{Ell: ell, Code: code, Pool: pool}
		if err := p.Validate(); err != nil {
			return // rejected input is a correct outcome
		}
		for b := 0; b <= 1; b++ {
			for k := 0; k <= ell; k++ {
				v1, err1 := p.Eval(b, k)
				v2, err2 := p.Eval(b, k)
				if v1 != v2 || !errors.Is(err2, unwrapSentinel(err1)) {
					t.Fatalf("nondeterministic eval at (b=%d,k=%d): (%d,%v) vs (%d,%v)",
						b, k, v1, err1, v2, err2)
				}
				if err1 != nil && err1.Error() != err2.Error() {
					t.Fatalf("error text diverged: %q vs %q", err1, err2)
				}
			}
		}
		rule, err := p.Materialize()
		if err != nil {
			return // typed resource exhaustion, still a safe outcome
		}
		g0, g1 := rule.Tables()
		for k := range g0 {
			if g0[k] < 0 || g0[k] > 1 || g1[k] < 0 || g1[k] > 1 {
				t.Fatalf("materialized entry out of range: g0[%d]=%v g1[%d]=%v", k, g0[k], k, g1[k])
			}
		}
	})
}

// unwrapSentinel maps an eval error to its sentinel for errors.Is
// comparison; nil maps to nil (errors.Is(nil, nil) is true).
func unwrapSentinel(err error) error {
	for _, s := range []error{vm.ErrGas, vm.ErrStackOver, vm.ErrStackUnder, vm.ErrNoResult, vm.ErrInput} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}
