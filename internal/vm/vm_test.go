package vm

import (
	"errors"
	"math"
	"testing"
)

// evalOK evaluates with default limits and fails the test on error.
func evalOK(t *testing.T, p *Program, b, k int) int64 {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	v, err := p.Eval(b, k)
	if err != nil {
		t.Fatalf("Eval(b=%d,k=%d): %v", b, k, err)
	}
	return v
}

func asm(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func TestFixedPointRoundTrip(t *testing.T) {
	// Every probability a builtin table can contain must convert exactly.
	cases := []float64{0, 1, 0.5, 0.25, 1.0 / 3, 2.0 / 3, 0.1, 1.0 / 512, 0.3333333333333333}
	for _, p := range cases {
		v, exact := FromFloat(p)
		if !exact {
			t.Errorf("FromFloat(%v) not exact", p)
		}
		//bitlint:floatexact the round-trip contract is bit-exactness itself
		if back := ToFloat(v); back != p {
			t.Errorf("round trip %v -> %d -> %v", p, v, back)
		}
	}
	// A tiny non-dyadic value below 2⁻⁹ genuinely needs more than 61
	// fractional bits.
	if _, exact := FromFloat(1.0 / 3 * math.Ldexp(1, -55)); exact {
		t.Error("sub-2⁻⁹ non-dyadic reported exact")
	}
	if _, exact := FromFloat(math.NaN()); exact {
		t.Error("NaN reported exact")
	}
	if v, _ := FromFloat(math.Inf(1)); v != math.MaxInt64 {
		t.Errorf("+Inf saturates to %d", v)
	}
	if got := Quantize(2.5); got != 1 {
		t.Errorf("Quantize(2.5) = %v, want clamp to 1", got)
	}
}

func TestFixedArithmeticSaturatesAndIsTotal(t *testing.T) {
	if got := fixMul(One/2, One/2); got != One/4 {
		t.Errorf("0.5*0.5 = %v", ToFloat(got))
	}
	if got := fixDiv(One, 3*One); got != frac(1, 3) {
		t.Errorf("1/3 mismatch: %d vs %d", got, frac(1, 3))
	}
	if got := fixDiv(One, 0); got != 0 {
		t.Errorf("x/0 = %d, want 0", got)
	}
	if got := fixMul(math.MaxInt64, math.MaxInt64); got != math.MaxInt64 {
		t.Errorf("max*max = %d, want saturation", got)
	}
	if got := fixMul(math.MinInt64, math.MaxInt64); got != math.MinInt64 {
		t.Errorf("min*max = %d, want saturation", got)
	}
	if got := fixDiv(math.MaxInt64, 1); got != math.MaxInt64 {
		t.Errorf("max / tiny = %d, want saturation", got)
	}
	if got := satAdd(math.MaxInt64, One); got != math.MaxInt64 {
		t.Errorf("satAdd overflow = %d", got)
	}
	if got := satAdd(math.MinInt64, -One); got != math.MinInt64 {
		t.Errorf("satAdd underflow = %d", got)
	}
	if got := satNeg(math.MinInt64); got != math.MaxInt64 {
		t.Errorf("satNeg(MinInt64) = %d", got)
	}
}

func TestEvalOpcodeSemantics(t *testing.T) {
	// frac pushes k/ℓ; own pushes b.
	p := asm(t, "ell 4\nfrac\nhalt")
	if got := evalOK(t, p, 0, 3); got != frac(3, 4) {
		t.Errorf("frac: %d", got)
	}
	p = asm(t, "ell 1\nown\nhalt")
	if got := evalOK(t, p, 1, 0); got != One {
		t.Errorf("own: %d", got)
	}
	// Arithmetic: (1 - k/ℓ) is the AntiVoter body.
	p = asm(t, "ell 2\npush1\nfrac\nfsub\nhalt")
	if got := evalOK(t, p, 0, 1); got != One-frac(1, 2) {
		t.Errorf("1 - 1/2 = %d", got)
	}
	// Comparisons and select: majority via (ℓ/2 < k).
	p = asm(t, `ell 3
const 0.5
pushc 0
frac
flt        ; 0.5 < k/ℓ
halt`)
	if got := evalOK(t, p, 0, 2); got != One {
		t.Errorf("flt true: %d", got)
	}
	if got := evalOK(t, p, 0, 1); got != 0 {
		t.Errorf("flt false: %d", got)
	}
	p = asm(t, "ell 1\npush0\npush1\nown\nselect\nhalt")
	if got := evalOK(t, p, 1, 0); got != 0 {
		t.Errorf("select nonzero picked %d, want onNonzero=0", got)
	}
	if got := evalOK(t, p, 0, 0); got != One {
		t.Errorf("select zero picked %d, want onZero=One", got)
	}
	// Stack ops.
	p = asm(t, "ell 1\npush0\npush1\nswap\ndrop\nhalt")
	if got := evalOK(t, p, 0, 0); got != One {
		t.Errorf("swap/drop: %d", got)
	}
	p = asm(t, "ell 1\npush1\npush0\nover\nhalt")
	if got := evalOK(t, p, 0, 0); got != One {
		t.Errorf("over: %d", got)
	}
	// tbl indexes pool[b(ℓ+1)+k].
	p = asm(t, "ell 1\nconst 0\nconst 0.25\nconst 0.75\nconst 1\ntbl\nhalt")
	want := [][]int64{{0, One / 4}, {3 * One / 4, One}}
	for b := 0; b <= 1; b++ {
		for k := 0; k <= 1; k++ {
			if got := evalOK(t, p, b, k); got != want[b][k] {
				t.Errorf("tbl(%d,%d) = %d, want %d", b, k, got, want[b][k])
			}
		}
	}
	// Conditional jump: jnz taken and not taken.
	p = asm(t, `ell 1
own
jnz one
push0
halt
one:
push1
halt`)
	if got := evalOK(t, p, 1, 0); got != One {
		t.Errorf("jnz taken: %d", got)
	}
	if got := evalOK(t, p, 0, 0); got != 0 {
		t.Errorf("jnz fallthrough: %d", got)
	}
	// clamp01 on an out-of-range sum.
	p = asm(t, "ell 1\npush1\npush1\nfadd\nclamp01\nhalt")
	if got := evalOK(t, p, 0, 0); got != One {
		t.Errorf("clamp01: %d", got)
	}
}

func TestEvalGasExhaustionIsTypedNotHang(t *testing.T) {
	// An unconditional self-loop must terminate with ErrGas — this is the
	// property that lets the service run untrusted bytecode inside a job.
	p := asm(t, "ell 1\nloop:\njmp loop")
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := p.Eval(0, 0)
	if !errors.Is(err, ErrGas) {
		t.Fatalf("self-loop error = %v, want ErrGas", err)
	}
	// A bounded loop under the same budget still completes.
	bounded := asm(t, `ell 1
push1       ; counter = 1
again:
push0
fadd        ; burn gas without changing the counter
dup
jnz done
jmp again
done:
halt`)
	if got := evalOK(t, bounded, 0, 0); got != One {
		t.Errorf("bounded loop result %d", got)
	}
}

func TestEvalStackLimits(t *testing.T) {
	p := asm(t, "ell 1\nloop:\npush1\njmp loop")
	_, err := p.Eval(0, 0)
	if !errors.Is(err, ErrStackOver) {
		t.Fatalf("push loop error = %v, want ErrStackOver", err)
	}
	under := &Program{Ell: 1, Code: []byte{byte(OpAdd)}}
	if err := under.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err = under.Eval(0, 0)
	if !errors.Is(err, ErrStackUnder) {
		t.Fatalf("empty-stack add error = %v, want ErrStackUnder", err)
	}
	empty := &Program{Ell: 1, Code: []byte{byte(OpHalt)}}
	_, err = empty.Eval(0, 0)
	if !errors.Is(err, ErrNoResult) {
		t.Fatalf("halt-with-empty-stack error = %v, want ErrNoResult", err)
	}
	_, err = empty.Eval(2, 0)
	if !errors.Is(err, ErrInput) {
		t.Fatalf("bad opinion error = %v, want ErrInput", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		p    Program
		want error
	}{
		{"ell zero", Program{Ell: 0, Code: []byte{byte(OpHalt)}}, ErrEll},
		{"ell huge", Program{Ell: MaxEll + 1, Code: []byte{byte(OpHalt)}}, ErrEll},
		{"empty code", Program{Ell: 1}, ErrCodeSize},
		{"code huge", Program{Ell: 1, Code: make([]byte, MaxCodeBytes+1)}, ErrCodeSize},
		{"pool huge", Program{Ell: 1, Code: []byte{byte(OpHalt)}, Pool: make([]int64, MaxPoolEntries+1)}, ErrPoolSize},
		{"bad opcode", Program{Ell: 1, Code: []byte{0xff}}, ErrBadOpcode},
		{"truncated imm", Program{Ell: 1, Code: []byte{byte(OpPushC), 0}}, ErrTruncated},
		{"pool index", Program{Ell: 1, Code: []byte{byte(OpPushC), 0, 0, byte(OpHalt)}}, ErrPoolIndex},
		{"tbl pool short", Program{Ell: 1, Code: []byte{byte(OpTbl)}, Pool: []int64{0, 0, 0}}, ErrTblPool},
		{"jump out of range", Program{Ell: 1, Code: []byte{byte(OpJmp), 0, 10}}, ErrBadJump},
		{"jump into immediate", Program{Ell: 1, Code: []byte{byte(OpJmp), 0, 1, byte(OpJmp), 0xff, 0xfb}}, ErrBadJump},
		{"name huge", Program{Name: string(make([]byte, MaxNameLen+1)), Ell: 1, Code: []byte{byte(OpHalt)}}, ErrName},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
		})
	}
	// Jump one past the end is a legal implicit halt.
	end := Program{Ell: 1, Code: []byte{byte(OpPush1), byte(OpJmp), 0, 0}}
	if err := end.Validate(); err != nil {
		t.Fatalf("jump-to-end should validate: %v", err)
	}
	if got := evalOK(t, &end, 0, 0); got != One {
		t.Fatalf("jump-to-end result %d", got)
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := `name demo
ell 3
const 0
const 0.5
const 1
own
jnz keep
pushc 1
frac
fmul
clamp01
halt
keep:
push1
halt`
	p := asm(t, src)
	text, err := p.Disassemble()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassemble:\n%s\n%v", text, err)
	}
	if string(p.Encode()) != string(p2.Encode()) {
		t.Fatalf("round trip changed the program:\n%s", text)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"ell 1\nbogus",             // unknown mnemonic
		"ell 1\njmp nowhere",       // undefined label
		"ell 1\nconst nope\nhalt",  // bad constant
		"ell 1\nconst 1e-30\nhalt", // not representable
		"halt",                     // missing ell
		"ell 1\nx:\nx:\nhalt",      // duplicate label
		"ell 1\npushc 70000\nhalt", // pool index out of u16
		"ell 1\npushc\nhalt",       // missing operand
		"ell 1\nhalt extra",        // surplus operand
		"ell one\nhalt",            // bad ell
		"ell 1\n: \nhalt",          // malformed label
	}
	for _, src := range cases {
		if _, err := Assemble(src); !errors.Is(err, ErrAsm) && !errors.Is(err, ErrNotRepresentable) {
			t.Errorf("Assemble(%q) = %v, want assembly error", src, err)
		}
	}
}

func TestEncodeDecodeRoundTripAndAddress(t *testing.T) {
	p := asm(t, "name x\nell 2\nconst 0.5\npushc 0\nhalt")
	blob := p.Encode()
	p2, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2.Encode()) != string(blob) {
		t.Fatal("decode/encode not the identity")
	}
	if p2.Name != "x" || p2.Ell != 2 {
		t.Fatalf("decoded header %q/%d", p2.Name, p2.Ell)
	}
	// The address ignores the display name but sees semantics.
	q := asm(t, "name y\nell 2\nconst 0.5\npushc 0\nhalt")
	if p.Address() != q.Address() {
		t.Error("rename changed the content address")
	}
	r := asm(t, "name x\nell 2\nconst 0.25\npushc 0\nhalt")
	if p.Address() == r.Address() {
		t.Error("different pool, same content address")
	}
	for _, cut := range []int{0, 3, len(blob) - 1} {
		if _, err := Decode(blob[:cut]); err == nil {
			t.Errorf("Decode(blob[:%d]) accepted truncated input", cut)
		}
	}
	if _, err := Decode(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("Decode accepted trailing garbage")
	}
}
