package vm

import "fmt"

// Op is a single bytecode opcode. The instruction stream is a flat byte
// slice: one opcode byte, followed by that opcode's immediate operand
// (OperandBytes), big-endian. The set is deliberately tiny — every
// instruction is total (no traps beyond the typed resource errors), so
// any byte string that passes Program.Validate evaluates to *some*
// probability on every input, which is what makes random genomes and
// untrusted submissions safe to run.
type Op byte

const (
	// OpHalt stops execution; the value on top of the stack is the result.
	// Falling off the end of the code is an implicit OpHalt.
	OpHalt Op = 0x00
	// OpPushC pushes constant-pool entry imm (uint16 index).
	OpPushC Op = 0x01
	// OpPush0 pushes fixed-point 0.
	OpPush0 Op = 0x02
	// OpPush1 pushes fixed-point 1 (One).
	OpPush1 Op = 0x03
	// OpOwn pushes the agent's current opinion b as fixed-point 0 or 1.
	OpOwn Op = 0x04
	// OpFrac pushes the normalized observation k/ℓ as a fixed-point value
	// in [0, 1] (exact 128-bit division, floor rounding).
	OpFrac Op = 0x05
	// OpTbl pushes constant-pool entry b·(ℓ+1)+k: a direct table lookup.
	// The pool must hold at least 2(ℓ+1) entries (validated). This is the
	// opcode the Rule compiler emits, and it also puts plain probability
	// tables inside the evolutionary search space.
	OpTbl Op = 0x06

	// OpAdd … OpClamp01 are saturating Q2.61 fixed-point arithmetic.
	OpAdd     Op = 0x10
	OpSub     Op = 0x11
	OpMul     Op = 0x12
	OpDiv     Op = 0x13 // x/0 is defined as 0, keeping evaluation total
	OpNeg     Op = 0x14
	OpAbs     Op = 0x15
	OpMin     Op = 0x16
	OpMax     Op = 0x17
	OpClamp01 Op = 0x18 // clamp to [0, One]

	// OpLt/OpLe/OpEq pop b then a and push One when a<b / a<=b / a==b,
	// else 0. OpSelect pops cond, onZero, onNonzero and pushes onNonzero
	// when cond != 0, else onZero.
	OpLt     Op = 0x20
	OpLe     Op = 0x21
	OpEq     Op = 0x22
	OpSelect Op = 0x23

	// Stack manipulation.
	OpDup  Op = 0x30
	OpDrop Op = 0x31
	OpSwap Op = 0x32
	OpOver Op = 0x33

	// OpJmp/OpJnz jump by a signed 16-bit offset relative to the next
	// instruction. OpJnz pops the condition and jumps when it is nonzero.
	// Targets must land on an instruction boundary (or one past the end,
	// an implicit halt); loops are bounded by gas, never by trust.
	OpJmp Op = 0x40
	OpJnz Op = 0x41
)

// opInfo describes one opcode's static shape. A zero entry (empty name)
// means the byte is not a valid opcode.
type opInfo struct {
	name    string
	operand int // immediate size in bytes (0 or 2)
	pops    int
	pushes  int
	gas     int64
}

// ops is the opcode table, indexed by opcode byte.
var ops = [256]opInfo{
	OpHalt:    {"halt", 0, 0, 0, 1},
	OpPushC:   {"pushc", 2, 0, 1, 1},
	OpPush0:   {"push0", 0, 0, 1, 1},
	OpPush1:   {"push1", 0, 0, 1, 1},
	OpOwn:     {"own", 0, 0, 1, 1},
	OpFrac:    {"frac", 0, 0, 1, 1},
	OpTbl:     {"tbl", 0, 0, 1, 1},
	OpAdd:     {"fadd", 0, 2, 1, 1},
	OpSub:     {"fsub", 0, 2, 1, 1},
	OpMul:     {"fmul", 0, 2, 1, 2},
	OpDiv:     {"fdiv", 0, 2, 1, 4},
	OpNeg:     {"fneg", 0, 1, 1, 1},
	OpAbs:     {"fabs", 0, 1, 1, 1},
	OpMin:     {"fmin", 0, 2, 1, 1},
	OpMax:     {"fmax", 0, 2, 1, 1},
	OpClamp01: {"clamp01", 0, 1, 1, 1},
	OpLt:      {"flt", 0, 2, 1, 1},
	OpLe:      {"fle", 0, 2, 1, 1},
	OpEq:      {"feq", 0, 2, 1, 1},
	OpSelect:  {"select", 0, 3, 1, 1},
	OpDup:     {"dup", 0, 1, 2, 1},
	OpDrop:    {"drop", 0, 1, 0, 1},
	OpSwap:    {"swap", 0, 2, 2, 1},
	OpOver:    {"over", 0, 2, 3, 1},
	OpJmp:     {"jmp", 2, 0, 0, 1},
	OpJnz:     {"jnz", 2, 1, 0, 1},
}

// opByName resolves an assembler mnemonic; ok is false for unknown names.
func opByName(name string) (Op, bool) {
	for b := 0; b < 256; b++ {
		if ops[b].name == name {
			return Op(b), true
		}
	}
	return 0, false
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if ops[o].name != "" {
		return ops[o].name
	}
	return fmt.Sprintf("op(0x%02x)", byte(o))
}

// OperandBytes returns the size of the opcode's immediate operand.
func (o Op) OperandBytes() int {
	return ops[o].operand
}

// valid reports whether the byte is a defined opcode.
func (o Op) valid() bool {
	return ops[o].name != ""
}
