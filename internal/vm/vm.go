// Package vm is a tiny deterministic, gas-metered stack bytecode VM for
// memory-less decision rules g^[b](k): a program maps an agent's current
// opinion b and its observation k (ones among ℓ samples) to an
// adopt-1 probability. Arithmetic is saturating Q2.61 fixed point —
// integer-only, so evaluation is bit-identical on every platform — and
// every run is bounded by hard gas, stack, and code-size limits, which
// is what makes untrusted, user-submitted, or randomly evolved rules
// safe to execute inside an engine round.
//
// A program is evaluated once per (b, k) cell by Materialize, which
// produces an ordinary *protocol.Rule; the engines never interpret
// bytecode on a hot path. Compile is the inverse: it lowers any
// fixed-point-representable Rule table to a two-instruction program
// (OpTbl + OpHalt with the table as the constant pool), and the
// round-trip moves no bits — compiled builtins produce byte-identical
// engine.Results to their native forms across every engine variant.
package vm

import (
	"errors"
	"fmt"
)

// Hard resource limits (Program.Validate enforces the static ones, Eval
// the dynamic gas and stack ones).
const (
	// MaxCodeBytes bounds the instruction stream.
	MaxCodeBytes = 4096
	// MaxPoolEntries bounds the constant pool.
	MaxPoolEntries = 2048
	// MaxEll bounds the sample size a program may declare. Beyond ~2⁹ the
	// fixed-point grid can no longer represent k/ℓ-style table entries
	// exactly, so this is a representability bound, not just a cost bound.
	MaxEll = 512
	// MaxNameLen bounds the display name (serving metadata, excluded from
	// the content address).
	MaxNameLen = 128
	// DefaultGas is the fixed per-evaluation gas budget: generous for any
	// honest decision rule, fatal for runaway loops.
	DefaultGas = 4096
	// DefaultMaxStack is the fixed bound on the operand stack depth.
	DefaultMaxStack = 64
)

// Typed errors. Validation errors describe a rejected program; Eval
// errors describe an exhausted resource — a program that validates can
// only fail with one of the Err* evaluation errors, never hang.
var (
	ErrEll        = errors.New("vm: sample size outside [1, MaxEll]")
	ErrCodeSize   = errors.New("vm: code size outside [1, MaxCodeBytes]")
	ErrPoolSize   = errors.New("vm: constant pool exceeds MaxPoolEntries")
	ErrBadOpcode  = errors.New("vm: undefined opcode")
	ErrTruncated  = errors.New("vm: truncated immediate operand")
	ErrPoolIndex  = errors.New("vm: constant index outside pool")
	ErrBadJump    = errors.New("vm: jump target not an instruction boundary")
	ErrTblPool    = errors.New("vm: tbl needs a pool with at least 2(ℓ+1) entries")
	ErrName       = errors.New("vm: name exceeds MaxNameLen")
	ErrGas        = errors.New("vm: gas exhausted")
	ErrStackOver  = errors.New("vm: stack overflow")
	ErrStackUnder = errors.New("vm: stack underflow")
	ErrNoResult   = errors.New("vm: halt with empty stack")
	ErrInput      = errors.New("vm: evaluation input outside domain")
)

// Program is one decision rule in bytecode form: an instruction stream,
// a constant pool of fixed-point values, and the sample size ℓ the rule
// is defined for. Name is display metadata; it is carried by Encode but
// excluded from the content Address.
type Program struct {
	Name string
	Ell  int
	Code []byte
	Pool []int64
}

// Validate checks every static safety property: size limits, opcode
// definedness, immediate completeness, pool indices, jump alignment,
// and the OpTbl pool requirement. A validated program cannot fault at
// evaluation time — it can only exhaust gas or stack, both typed errors.
func (p *Program) Validate() error {
	if p.Ell < 1 || p.Ell > MaxEll {
		return fmt.Errorf("%w (ℓ=%d)", ErrEll, p.Ell)
	}
	if len(p.Name) > MaxNameLen {
		return fmt.Errorf("%w (%d bytes)", ErrName, len(p.Name))
	}
	if len(p.Code) < 1 || len(p.Code) > MaxCodeBytes {
		return fmt.Errorf("%w (%d bytes)", ErrCodeSize, len(p.Code))
	}
	if len(p.Pool) > MaxPoolEntries {
		return fmt.Errorf("%w (%d entries)", ErrPoolSize, len(p.Pool))
	}
	boundary := make([]bool, len(p.Code)+1)
	type jump struct{ next, target int }
	var jumps []jump
	for pc := 0; pc < len(p.Code); {
		boundary[pc] = true
		op := Op(p.Code[pc])
		if !op.valid() {
			return fmt.Errorf("%w (0x%02x at %d)", ErrBadOpcode, byte(op), pc)
		}
		next := pc + 1 + op.OperandBytes()
		if next > len(p.Code) {
			return fmt.Errorf("%w (%s at %d)", ErrTruncated, op, pc)
		}
		switch op {
		case OpPushC:
			idx := int(p.Code[pc+1])<<8 | int(p.Code[pc+2])
			if idx >= len(p.Pool) {
				return fmt.Errorf("%w (pushc %d, pool %d, at %d)", ErrPoolIndex, idx, len(p.Pool), pc)
			}
		case OpTbl:
			if len(p.Pool) < 2*(p.Ell+1) {
				return fmt.Errorf("%w (ℓ=%d, pool %d)", ErrTblPool, p.Ell, len(p.Pool))
			}
		case OpJmp, OpJnz:
			off := int(int16(uint16(p.Code[pc+1])<<8 | uint16(p.Code[pc+2])))
			jumps = append(jumps, jump{next: next, target: next + off})
		}
		pc = next
	}
	boundary[len(p.Code)] = true // one past the end: implicit halt
	for _, j := range jumps {
		if j.target < 0 || j.target > len(p.Code) || !boundary[j.target] {
			return fmt.Errorf("%w (from %d to %d)", ErrBadJump, j.next, j.target)
		}
	}
	return nil
}

// Eval runs the program on one input cell (b, k) and returns the raw
// fixed-point result (callers clamp to [0, One] for a probability; see
// Materialize). The program must have passed Validate; Eval re-checks
// nothing static. Evaluation is a pure function of (program, b, k) —
// no clocks, no randomness, no floats — and spends at most DefaultGas
// gas with at most DefaultMaxStack operands.
func (p *Program) Eval(b, k int) (int64, error) {
	if b < 0 || b > 1 || k < 0 || k > p.Ell {
		return 0, fmt.Errorf("%w (b=%d, k=%d, ℓ=%d)", ErrInput, b, k, p.Ell)
	}
	gas := int64(DefaultGas)
	stack := make([]int64, 0, 16)

	pop := func() (int64, bool) {
		if len(stack) == 0 {
			return 0, false
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v, true
	}

	for pc := 0; ; {
		if pc >= len(p.Code) {
			break // implicit halt
		}
		op := Op(p.Code[pc])
		info := ops[op]
		gas -= info.gas
		if gas < 0 {
			return 0, fmt.Errorf("%w (limit %d)", ErrGas, DefaultGas)
		}
		if len(stack) < info.pops {
			return 0, fmt.Errorf("%w (%s at %d wants %d operands, stack has %d)",
				ErrStackUnder, op, pc, info.pops, len(stack))
		}
		if len(stack)-info.pops+info.pushes > DefaultMaxStack {
			return 0, fmt.Errorf("%w (%s at %d, limit %d)", ErrStackOver, op, pc, DefaultMaxStack)
		}
		next := pc + 1 + info.operand

		switch op {
		case OpHalt:
			pc = len(p.Code)
			continue
		case OpPushC:
			idx := int(p.Code[pc+1])<<8 | int(p.Code[pc+2])
			stack = append(stack, p.Pool[idx])
		case OpPush0:
			stack = append(stack, 0)
		case OpPush1:
			stack = append(stack, One)
		case OpOwn:
			stack = append(stack, int64(b)*One)
		case OpFrac:
			stack = append(stack, frac(k, p.Ell))
		case OpTbl:
			stack = append(stack, p.Pool[b*(p.Ell+1)+k])
		case OpAdd:
			y, _ := pop()
			x, _ := pop()
			stack = append(stack, satAdd(x, y))
		case OpSub:
			y, _ := pop()
			x, _ := pop()
			stack = append(stack, satAdd(x, satNeg(y)))
		case OpMul:
			y, _ := pop()
			x, _ := pop()
			stack = append(stack, fixMul(x, y))
		case OpDiv:
			y, _ := pop()
			x, _ := pop()
			stack = append(stack, fixDiv(x, y))
		case OpNeg:
			x, _ := pop()
			stack = append(stack, satNeg(x))
		case OpAbs:
			x, _ := pop()
			if x < 0 {
				x = satNeg(x)
			}
			stack = append(stack, x)
		case OpMin:
			y, _ := pop()
			x, _ := pop()
			if y < x {
				x = y
			}
			stack = append(stack, x)
		case OpMax:
			y, _ := pop()
			x, _ := pop()
			if y > x {
				x = y
			}
			stack = append(stack, x)
		case OpClamp01:
			x, _ := pop()
			stack = append(stack, clamp01(x))
		case OpLt, OpLe, OpEq:
			y, _ := pop()
			x, _ := pop()
			hit := (op == OpLt && x < y) || (op == OpLe && x <= y) || (op == OpEq && x == y)
			if hit {
				stack = append(stack, One)
			} else {
				stack = append(stack, 0)
			}
		case OpSelect:
			cond, _ := pop()
			onZero, _ := pop()
			onNonzero, _ := pop()
			if cond != 0 {
				stack = append(stack, onNonzero)
			} else {
				stack = append(stack, onZero)
			}
		case OpDup:
			x := stack[len(stack)-1]
			stack = append(stack, x)
		case OpDrop:
			_, _ = pop()
		case OpSwap:
			n := len(stack)
			stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
		case OpOver:
			stack = append(stack, stack[len(stack)-2])
		case OpJmp:
			off := int(int16(uint16(p.Code[pc+1])<<8 | uint16(p.Code[pc+2])))
			pc = next + off
			continue
		case OpJnz:
			cond, _ := pop()
			if cond != 0 {
				off := int(int16(uint16(p.Code[pc+1])<<8 | uint16(p.Code[pc+2])))
				pc = next + off
				continue
			}
		}
		pc = next
	}
	if len(stack) == 0 {
		return 0, ErrNoResult
	}
	return stack[len(stack)-1], nil
}
