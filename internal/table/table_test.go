package table

import (
	"strings"
	"testing"
)

func TestASCIIAlignment(t *testing.T) {
	tb := New("Demo", "n", "rounds")
	tb.AddRow("8", "12")
	tb.AddRow("1024", "9")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "n   ") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "8   ") {
		t.Errorf("row = %q", lines[3])
	}
	if !strings.HasPrefix(lines[4], "1024") {
		t.Errorf("row = %q", lines[4])
	}
}

func TestAddRowfAndNotes(t *testing.T) {
	tb := New("", "a", "b", "c")
	tb.AddRowf(3, 0.123456789, "x")
	tb.AddNote("seed %d", 42)
	out := tb.String()
	if !strings.Contains(out, "0.1235") {
		t.Errorf("float not %%.4g-formatted:\n%s", out)
	}
	if !strings.Contains(out, "note: seed 42") {
		t.Errorf("note missing:\n%s", out)
	}
}

func TestRowPadding(t *testing.T) {
	tb := New("", "a", "b")
	tb.AddRow("1")           // short row: missing cell blank
	tb.AddRow("1", "2", "3") // long row: extra dropped
	var csv strings.Builder
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(csv.String(), "\n") - 1; rows != 2 {
		t.Fatalf("rows = %d", rows)
	}
	out := tb.String()
	if strings.Contains(out, "3") {
		t.Errorf("extra cell survived:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	tb := New("ignored", "name", "value")
	tb.AddRow(`quo"te`, "a,b")
	tb.AddRow("plain", "1")
	tb.AddNote("not in csv")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "name,value\n\"quo\"\"te\",\"a,b\"\nplain,1\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestUnicodeHeadersAlign(t *testing.T) {
	tb := New("", "ℓ", "τ/n")
	tb.AddRow("85", "0.02")
	out := tb.String()
	if !strings.Contains(out, "ℓ") || !strings.Contains(out, "85") {
		t.Errorf("unicode table broken:\n%s", out)
	}
}
