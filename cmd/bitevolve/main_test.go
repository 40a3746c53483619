package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// smallSearch is a search small enough for a unit test that still
// simulates genomes (the loose drift cutoff lets them past the bias
// pre-filter) and runs the final measurement, so both go through the
// count engine.
var smallSearch = []string{
	"-ell", "3", "-population", "12", "-generations", "6", "-sim-n", "128",
	"-drift-cutoff", "0.05", "-eval-n", "1024", "-eval-seeds", "2", "-seed", "5", "-asm", "-v",
}

// The search is a pure function of its flags: two identical invocations
// print the same bytes, and the digest pins that output across revisions
// (a change to the engine's realization or to the search shows up here).
func TestRunDeterministic(t *testing.T) {
	const want = "401820a1c120c2643e05e24b7a6b1261239fe63e28ce773a99c82589a32a5fdf"
	var a, b strings.Builder
	if err := run(smallSearch, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(smallSearch, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same flags, different output:\n%s\n---\n%s", a.String(), b.String())
	}
	sum := sha256.Sum256([]byte(a.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("output digest = %s, want %s; output:\n%s", got, want, a.String())
	}
}

// Bad flags are rejected before the search starts: with -v a search that
// ran would have printed its generations.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-ell", "0"},
		{"-eval-seeds", "0"},
		{"-eval-n", "-5"},
		{"-eval-n", "1"},
	}
	for _, bad := range cases {
		args := append([]string{"-v", "-population", "8", "-generations", "2", "-sim-n", "64", "-eval-n", "64"}, bad...)
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%v accepted", bad)
		}
		if out.Len() != 0 {
			t.Errorf("%v ran a search before failing:\n%s", bad, out.String())
		}
	}
}
