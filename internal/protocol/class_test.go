package protocol

import (
	"errors"
	"testing"
)

// TestWrapperClassification pins the historically-leaky cases: wrapper
// outputs that violate Proposition 3 used to pass every structural check
// while being unable to solve the problem. Classification at
// construction makes the leak impossible.
func TestWrapperClassification(t *testing.T) {
	voter := Voter(3)
	cases := []struct {
		name string
		rule *Rule
		want Class
	}{
		{"Voter", voter, ClassProtocol},
		{"WithNoise(Voter, 0)", WithNoise(voter, 0), ClassProtocol},
		{"WithNoise(Voter, 0.01)", WithNoise(voter, 0.01), ClassEnvironment},
		{"WithNoise(Voter, 0.5)", WithNoise(voter, 0.5), ClassEnvironment},
		{"WithNoise(Voter, 1)", WithNoise(voter, 1), ClassEnvironment},
		{"WithLaziness(Voter, 0.25)", WithLaziness(voter, 0.25), ClassProtocol},
		{"WithLaziness(Voter, 0.99)", WithLaziness(voter, 0.99), ClassProtocol},
		{"AntiVoter", AntiVoter(2), ClassEnvironment},
		{"Constant(0.375)", Constant(2, 0.375), ClassEnvironment},
	}
	for _, tc := range cases {
		if got := tc.rule.class; got != tc.want {
			t.Errorf("%s: class = %v, want %v", tc.name, got, tc.want)
		}
		err := tc.rule.Validate()
		if tc.want == ClassProtocol && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if tc.want == ClassEnvironment {
			if !errors.Is(err, ErrEnvironmentRule) {
				t.Errorf("%s: Validate() = %v, want ErrEnvironmentRule", tc.name, err)
			}
			if !errors.Is(err, ErrProp3) {
				t.Errorf("%s: Validate() = %v, want the ErrProp3 cause preserved", tc.name, err)
			}
		}
	}
}

// TestMixClassification: a mixture with any weight of noise on an
// endpoint leaks out of the protocol class; mixing two protocols stays
// inside it.
func TestMixClassification(t *testing.T) {
	voter := Voter(2)
	minority := Minority(2)
	noisy := WithNoise(voter, 0.1)

	pure, err := Mix(voter, minority, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if pure.class != ClassProtocol || pure.Validate() != nil {
		t.Errorf("Mix(Voter, Minority): class %v, Validate %v; want protocol/nil",
			pure.class, pure.Validate())
	}

	leaky, err := Mix(voter, noisy, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if leaky.class != ClassEnvironment {
		t.Errorf("Mix(Voter, noisy): class %v, want environment", leaky.class)
	}
	if err := leaky.Validate(); !errors.Is(err, ErrEnvironmentRule) {
		t.Errorf("Mix(Voter, noisy): Validate() = %v, want ErrEnvironmentRule", err)
	}

	// Weight 1 on the protocol endpoint discards the noise entirely.
	degenerate, err := Mix(voter, noisy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if degenerate.class != ClassProtocol {
		t.Errorf("Mix(Voter, noisy, w=1): class %v, want protocol", degenerate.class)
	}
}

// TestBuiltinsAreProtocolClass sweeps the built-in catalogue: everything
// except the deliberately-broken rules must classify as a protocol.
func TestBuiltinsAreProtocolClass(t *testing.T) {
	for _, r := range []*Rule{
		Voter(1), Voter(3), Minority(2), Minority(3), Majority(3), Majority(5),
		ThreeMajority(), TwoChoice(), BiasedVoter(3, 0.125), LazyVoter(3, 0.25),
		Follower(3, 2),
	} {
		if r.class != ClassProtocol {
			t.Errorf("%v: class %v, want protocol", r, r.class)
		}
	}
}
