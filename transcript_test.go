package bitspread_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	boldSpan  = regexp.MustCompile(`\*\*(.+?)\*\*`)
	numberTok = regexp.MustCompile(`\d+(?:\.\d+)?`)
)

// TestExperimentsBoldNumbersInTranscript: every bold number in the two
// result tables of EXPERIMENTS.md occurs in results_full.txt, the
// full-size transcript `make reproduce` checks. A re-recorded transcript
// that moves a number fails here until the prose follows it.
func TestExperimentsBoldNumbersInTranscript(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	transcript, err := os.ReadFile("results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, tok := range numberTok.FindAllString(string(transcript), -1) {
		have[tok] = true
	}
	body, _, ok := strings.Cut(string(doc), "## Substitutions")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Substitutions section ending the result tables")
	}
	checked := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(line, "| "), " ")
		for _, span := range boldSpan.FindAllStringSubmatch(line, -1) {
			for _, num := range numberTok.FindAllString(span[1], -1) {
				checked++
				if !have[num] {
					t.Errorf("%s: bold %q cites %s, which results_full.txt does not contain", id, span[0], num)
				}
			}
		}
	}
	if checked < 40 {
		t.Errorf("checked only %d bold numbers; the tables' format changed", checked)
	}
}
