// Package cli holds the flag-level plumbing shared by the cmd/ binaries:
// building rules and sample-size schedules from string specifications.
package cli

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"bitspread/internal/protocol"
	"bitspread/internal/vm"
)

// RuleNames lists the rule spec names understood by BuildRule.
func RuleNames() string {
	return "voter, minority, majority, 3majority, 2choice, antivoter, biased, lazy, follower, constant"
}

// BuildRule constructs a rule from its CLI specification. delta is used by
// "biased" (the tilt) and "lazy" (the laziness); threshold by "follower".
func BuildRule(name string, ell int, delta float64, threshold int) (*protocol.Rule, error) {
	switch strings.ToLower(name) {
	case "voter":
		return protocol.Voter(ell), nil
	case "minority":
		return protocol.Minority(ell), nil
	case "majority":
		return protocol.Majority(ell), nil
	case "3majority":
		return protocol.ThreeMajority(), nil
	case "2choice", "twochoice":
		return protocol.TwoChoice(), nil
	case "antivoter":
		return protocol.AntiVoter(ell), nil
	case "biased":
		return protocol.BiasedVoter(ell, delta), nil
	case "lazy":
		return protocol.LazyVoter(ell, delta), nil
	case "follower":
		if threshold < 1 || threshold > ell {
			return nil, fmt.Errorf("cli: follower threshold %d outside [1, %d]", threshold, ell)
		}
		return protocol.Follower(ell, threshold), nil
	case "constant":
		// Environment-class on purpose (violates Proposition 3): the
		// sample-oblivious baseline for failure-injection experiments.
		return protocol.Constant(ell, delta), nil
	default:
		return nil, fmt.Errorf("cli: unknown rule %q (want one of: %s)", name, RuleNames())
	}
}

// LoadVMRule reads a bytecode program from path — either the canonical
// binary .bsvm container or assembly text, sniffed by magic — and
// materializes it as a rule under the default evaluation limits. The
// returned rule keeps its protocol/environment classification, so
// callers that admit only protocols can still gate on rule.Validate().
func LoadVMRule(path string) (*protocol.Rule, *vm.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("cli: reading vm program: %w", err)
	}
	var prog *vm.Program
	if bytes.HasPrefix(data, []byte("BSVM")) {
		prog, err = vm.Decode(data)
	} else {
		prog, err = vm.Assemble(string(data))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("cli: loading vm program %s: %w", path, err)
	}
	rule, err := prog.Materialize()
	if err != nil {
		return nil, nil, fmt.Errorf("cli: materializing vm program %s: %w", path, err)
	}
	return rule, prog, nil
}

// BuildSchedule constructs a sample-size schedule from its CLI spec:
// "fixed" (uses ell), "sqrtnlogn", "logn", or "power" (uses coeff and
// alpha).
func BuildSchedule(spec string, ell int, coeff, alpha float64) (protocol.SampleSchedule, error) {
	switch strings.ToLower(spec) {
	case "", "fixed":
		if ell < 1 {
			return protocol.SampleSchedule{}, fmt.Errorf("cli: fixed schedule needs -ell >= 1, got %d", ell)
		}
		return protocol.Fixed(ell), nil
	case "sqrtnlogn":
		return protocol.SqrtNLogN(coeff), nil
	case "logn":
		return protocol.LogN(coeff), nil
	case "power":
		return protocol.PowerN(coeff, alpha), nil
	default:
		return protocol.SampleSchedule{}, fmt.Errorf("cli: unknown schedule %q (want fixed, sqrtnlogn, logn, power)", spec)
	}
}
