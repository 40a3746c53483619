package main

import (
	"strings"
	"testing"
)

func TestRunVoterWorstCase(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rule", "voter", "-n", "128", "-z", "1", "-init", "worst", "-seed", "7"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "converged in") {
		t.Errorf("expected convergence report:\n%s", got)
	}
	if !strings.Contains(got, "rule=Voter(ℓ=1)") {
		t.Errorf("header missing:\n%s", got)
	}
}

func TestRunAdversarialInit(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rule", "minority", "-ell", "3", "-n", "512", "-init", "adversarial", "-rounds", "200"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "adversarial instance") || !strings.Contains(got, "did not converge") {
		t.Errorf("adversarial run output:\n%s", got)
	}
}

func TestRunExplicitInitAndPlot(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rule", "voter", "-n", "64", "-init", "32", "-rounds", "200", "-plot"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "X0=32") {
		t.Errorf("explicit init not applied:\n%s", out.String())
	}
}

func TestRunSequentialAndAgents(t *testing.T) {
	for _, mode := range []string{"sequential", "agents"} {
		var out strings.Builder
		err := run([]string{"-rule", "voter", "-n", "32", "-mode", mode, "-init", "worst"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !strings.Contains(out.String(), "converged in") {
			t.Errorf("%s mode did not converge:\n%s", mode, out.String())
		}
	}
}

func TestRunAgentsSharded(t *testing.T) {
	runOnce := func() string {
		var out strings.Builder
		err := run([]string{"-rule", "voter", "-n", "64", "-mode", "agents",
			"-shards", "4", "-init", "worst", "-seed", "3"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	got := runOnce()
	if !strings.Contains(got, "shards=4") {
		t.Errorf("header missing shard count:\n%s", got)
	}
	if !strings.Contains(got, "converged in") {
		t.Errorf("sharded agents run did not converge:\n%s", got)
	}
	if again := runOnce(); again != got {
		t.Errorf("same (seed, shards) produced different output:\n%s\nvs\n%s", got, again)
	}
}

func TestRunUnpackedRejectsShards(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rule", "voter", "-n", "256", "-mode", "agents", "-unpacked", "-shards", "4"}, &out)
	if err == nil {
		t.Fatal("-unpacked -shards 4 accepted")
	}
	if !strings.Contains(err.Error(), "serial reference engine") {
		t.Errorf("error %q does not explain that the unpacked engine is serial", err)
	}
	if out.Len() != 0 {
		t.Errorf("rejected run printed output before failing:\n%s", out.String())
	}
	// One shard is the serial engine itself, so it stays accepted.
	if err := run([]string{"-rule", "voter", "-n", "64", "-mode", "agents", "-unpacked", "-shards", "1", "-seed", "3"}, &out); err != nil {
		t.Errorf("-unpacked -shards 1: %v", err)
	}
}

func TestRunPackedAndChunkedModes(t *testing.T) {
	for _, mode := range []string{"packed", "chunked"} {
		runOnce := func() string {
			var out strings.Builder
			err := run([]string{"-rule", "voter", "-n", "256", "-mode", mode,
				"-shards", "3", "-init", "worst", "-seed", "5"}, &out)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			return out.String()
		}
		got := runOnce()
		if !strings.Contains(got, "shards=3") {
			t.Errorf("%s header missing shard count:\n%s", mode, got)
		}
		if !strings.Contains(got, "converged in") {
			t.Errorf("%s mode did not converge:\n%s", mode, got)
		}
		if again := runOnce(); again != got {
			t.Errorf("%s: same (seed, shards) produced different output:\n%s\nvs\n%s", mode, got, again)
		}
	}
}

func TestRunPackedShardLimit(t *testing.T) {
	// n=64 is a single bitset word, so any shard count above 1 cannot give
	// every shard a whole word and must be rejected, not clamped.
	for _, mode := range []string{"packed", "chunked"} {
		var out strings.Builder
		err := run([]string{"-rule", "voter", "-n", "64", "-mode", mode, "-shards", "2"}, &out)
		if err == nil {
			t.Fatalf("%s: oversubscribed shard count accepted", mode)
		}
		if !strings.Contains(err.Error(), "whole word") {
			t.Errorf("%s: error %q does not explain the word-ownership rule", mode, err)
		}
	}
}

func TestRunNoiseWarns(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rule", "voter", "-n", "32", "-noise", "0.05", "-rounds", "50"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "warning") {
		t.Errorf("noise should warn about Prop 3:\n%s", out.String())
	}
}

func TestRunConflictMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rule", "voter", "-n", "128", "-sources1", "3", "-sources0", "1", "-rounds", "2000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "conflict mode") || !strings.Contains(got, "zealot-voter prediction 0.7500") {
		t.Errorf("conflict output:\n%s", got)
	}
}

func TestRunTraceOutput(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rule", "voter", "-n", "32", "-init", "16", "-rounds", "30", "-trace", "10"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "round") {
		t.Errorf("trace lines missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-rule", "bogus"},
		{"-mode", "warp", "-n", "16"},
		{"-init", "not-a-number", "-n", "16"},
		{"-schedule", "bogus"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunTopologyMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rule", "voter", "-n", "36", "-z", "1", "-topology", "torus", "-rounds", "200000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "topology mode") || !strings.Contains(got, "torus") {
		t.Errorf("topology output:\n%s", got)
	}
	if !strings.Contains(got, "converged in") {
		t.Errorf("torus voter did not converge:\n%s", got)
	}
}

func TestRunTopologyUnknown(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-topology", "hypercube", "-n", "16"}, &out); err == nil {
		t.Error("unknown topology accepted")
	}
}
