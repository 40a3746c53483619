package vm

import (
	"errors"
	"fmt"

	"bitspread/internal/protocol"
)

// ErrNotRepresentable is returned by Compile when a rule's table holds a
// probability that is not exact in Q2.61 fixed point. Every builtin and
// every float64 probability that is 0 or at least 2⁻⁹ is exact; only
// sub-2⁻⁹ values with long significands are not.
var ErrNotRepresentable = errors.New("vm: probability not representable in Q2.61 fixed point")

// Compile lowers a protocol.Rule to bytecode: the two probability tables
// become the constant pool (g^[0] then g^[1], each ℓ+1 entries) and the
// program body is a single table lookup. Compilation is refused unless
// every entry converts to fixed point exactly, so that Materialize
// reproduces the original float64 tables bit for bit — this is what
// makes a compiled builtin's engine.Results byte-identical to its
// native form.
func Compile(r *protocol.Rule) (*Program, error) {
	ell := r.SampleSize()
	if ell > MaxEll {
		return nil, fmt.Errorf("%w (ℓ=%d)", ErrEll, ell)
	}
	g0, g1 := r.Tables()
	pool := make([]int64, 0, 2*(ell+1))
	for b, tbl := range [][]float64{g0, g1} {
		for k, p := range tbl {
			v, exact := FromFloat(p)
			if !exact {
				return nil, fmt.Errorf("%w (g%d(%d) = %v)", ErrNotRepresentable, b, k, p)
			}
			pool = append(pool, v)
		}
	}
	p := &Program{
		Name: r.Name(),
		Ell:  ell,
		Code: []byte{byte(OpTbl), byte(OpHalt)},
		Pool: pool,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Materialize evaluates the program on every input cell (b, k), clamps
// each result into [0, 1], and returns the rule as an ordinary table
// the engines can run at native speed. The program must validate; any
// evaluation error (gas, stack) aborts materialization, so a program
// that materializes can never stall an engine round.
func (p *Program) Materialize() (*protocol.Rule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g0 := make([]float64, p.Ell+1)
	g1 := make([]float64, p.Ell+1)
	for b, tbl := range [][]float64{g0, g1} {
		for k := range tbl {
			v, err := p.Eval(b, k)
			if err != nil {
				return nil, fmt.Errorf("vm: materialize g%d(%d): %w", b, k, err)
			}
			tbl[k] = ToFloat(clamp01(v))
		}
	}
	name := p.Name
	if name == "" {
		name = "vm:" + p.Address()
	}
	return protocol.New(name, p.Ell, g0, g1)
}
