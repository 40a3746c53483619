package analysis

import "testing"

// Each analyzer gets positive and negative coverage from fixtures under
// testdata/src; RunFixture checks reported diagnostics against the
// fixtures' // want comments, and lines carrying a //bitlint:
// justification with no want comment pin the suppression path.

func TestDetRandFixtures(t *testing.T) {
	RunFixture(t, DetRand, "detrand.example/internal/engine")
	RunFixture(t, DetRand, "detrand.example/internal/sim")
	RunFixture(t, DetRand, "detrand.example/internal/fabric")
	RunFixture(t, DetRand, "detrand.example/internal/vm")
	RunFixture(t, DetRand, "detrand.example/internal/evolve")
	RunFixture(t, DetRand, "detrand.example/cmd/tool")
}

func TestMapOrderFixtures(t *testing.T) {
	RunFixture(t, MapOrder, "maporder.example/internal/sim")
	RunFixture(t, MapOrder, "maporder.example/pkg/other")
}

func TestFloatCmpFixtures(t *testing.T) {
	RunFixture(t, FloatCmp, "floatcmp.example/util")
}

func TestProbRangeFixtures(t *testing.T) {
	RunFixture(t, ProbRange, "probrange.example/internal/engine")
}

func TestValidateFirstFixtures(t *testing.T) {
	RunFixture(t, ValidateFirst, "validatefirst.example/internal/engine")
	RunFixture(t, ValidateFirst, "validatefirst.example/pkg/other")
}

func TestTaintDetFixtures(t *testing.T) {
	RunFixture(t, TaintDet, "taintdet.example/internal/sim")
	RunFixture(t, TaintDet, "taintdet.example/internal/fabric")
	RunFixture(t, TaintDet, "taintdet.example/internal/serve")
	RunFixture(t, TaintDet, "taintdet.example/internal/engine")
	RunFixture(t, TaintDet, "taintdet.example/internal/vm")
}

func TestCtxLoopFixtures(t *testing.T) {
	RunFixture(t, CtxLoop, "ctxloop.example/internal/serve")
	RunFixture(t, CtxLoop, "ctxloop.example/pkg/other")
}

func TestErrSinkFixtures(t *testing.T) {
	RunFixture(t, ErrSink, "errsink.example/internal/sim")
	RunFixture(t, ErrSink, "errsink.example/internal/serve")
	RunFixture(t, ErrSink, "errsink.example/internal/durable")
	RunFixture(t, ErrSink, "errsink.example/pkg/other")
}

func TestAtomicMixFixtures(t *testing.T) {
	RunFixture(t, AtomicMix, "atomicmix.example/internal/engine")
}

func TestSuiteShape(t *testing.T) {
	as := All()
	if len(as) != 9 {
		t.Fatalf("All() returned %d analyzers, want 9", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{
		"detrand", "maporder", "floatcmp", "probrange", "validatefirst",
		"taintdet", "ctxloop", "errsink", "atomicmix",
	} {
		if !seen[want] {
			t.Errorf("suite is missing %q", want)
		}
	}
}

func TestIsDeterministicPkg(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"bitspread/internal/engine", true},
		{"bitspread/internal/rng", true},
		{"fix.example/internal/sim", true},
		{"internal/markov", true},
		{"bitspread/internal/fabric", true},
		{"bitspread/internal/dist", true},
		{"bitspread/internal/poly", true},
		{"bitspread/internal/experiments", false},
		{"bitspread/internal/serve", false},
		{"bitspread/cmd/bitsim", false},
		{"bitspread/internal/engineering", false},
	}
	for _, c := range cases {
		if got := IsDeterministicPkg(c.path); got != c.want {
			t.Errorf("IsDeterministicPkg(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestLoadRealPackage exercises the go list + export-data loader against
// the repo itself: the rng package must type-check and produce non-empty
// syntax and type information.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load(".", "bitspread/internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.PkgPath != "bitspread/internal/rng" || len(p.Files) == 0 || p.Types == nil {
		t.Fatalf("package loaded incompletely: %+v", p.PkgPath)
	}
	if p.Types.Scope().Lookup("RNG") == nil {
		t.Error("type RNG not found in loaded package scope")
	}
}
