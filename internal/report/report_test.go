package report

import (
	"strings"
	"testing"

	"nisim/internal/stats"
)

func TestTableAlignsColumns(t *testing.T) {
	tbl := NewTable("name", "value")
	tbl.Row("a", "1")
	tbl.Row("longer-name", "23")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	// The value column should start at the same offset in both rows.
	off2 := strings.Index(lines[2], "1")
	off3 := strings.Index(lines[3], "23")
	if off2 != off3 {
		t.Fatalf("columns misaligned: %d vs %d\n%s", off2, off3, out)
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tbl := NewTable("only")
	tbl.Row("a", "b", "c")
	if strings.Contains(tbl.String(), "b") {
		t.Fatal("extra cells not dropped")
	}
}

func TestBar(t *testing.T) {
	b := Bar(1.0, 20)
	if len(b) != 20 {
		t.Fatalf("bar width %d", len(b))
	}
	if !strings.Contains(b, "|") {
		t.Fatal("baseline marker missing")
	}
	small, big := Bar(0.5, 20), Bar(2.0, 20)
	if strings.Count(small, "#") >= strings.Count(big, "#") {
		t.Fatal("bar length not monotone in value")
	}
	if got := Bar(-1, 10); strings.Count(got, "#") != 0 {
		t.Fatal("negative value produced bar segments")
	}
	if len(Bar(100, 10)) != 10 {
		t.Fatal("clipping failed")
	}
}

func TestTableColumnWidths(t *testing.T) {
	// Each column is as wide as its widest cell (header included), with a
	// two-space gutter between columns.
	tbl := NewTable("id", "description")
	tbl.Row("12345", "x")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if want := "id     description"; lines[0] != want {
		t.Errorf("header = %q, want %q", lines[0], want)
	}
	if want := "-----  -----------"; lines[1] != want {
		t.Errorf("separator = %q, want %q", lines[1], want)
	}
}

func TestTableSeparatorMatchesWidths(t *testing.T) {
	tbl := NewTable("a", "bb", "ccc")
	tbl.Row("wide-cell", "x", "y")
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	sep := strings.Split(lines[1], "  ")
	if len(sep) != 3 {
		t.Fatalf("separator has %d column groups: %q", len(sep), lines[1])
	}
	for i, want := range []int{len("wide-cell"), len("bb"), len("ccc")} {
		if got := len(sep[i]); got != want {
			t.Errorf("separator column %d is %d dashes, want %d", i, got, want)
		}
	}
}

func TestTableTrimsTrailingSpace(t *testing.T) {
	// A short cell in the last column must not leave pad spaces before the
	// newline: diffs of report output stay clean.
	tbl := NewTable("k", "value")
	tbl.Row("a", "x")
	for _, line := range strings.Split(tbl.String(), "\n") {
		if line != strings.TrimRight(line, " ") {
			t.Errorf("trailing spaces in %q", line)
		}
	}
}

func TestTableDeterministicRowOrder(t *testing.T) {
	// Rows render in insertion order, and re-rendering the same table is
	// byte-identical — report output participates in golden-file diffs.
	tbl := NewTable("node", "sends")
	for _, r := range [][2]string{{"node2", "9"}, {"node0", "3"}, {"node1", "7"}} {
		tbl.Row(r[0], r[1])
	}
	first := tbl.String()
	lines := strings.Split(strings.TrimRight(first, "\n"), "\n")
	order := []string{"node2", "node0", "node1"}
	for i, want := range order {
		if !strings.HasPrefix(lines[2+i], want) {
			t.Errorf("row %d = %q, want prefix %q (insertion order)", i, lines[2+i], want)
		}
	}
	for i := 0; i < 5; i++ {
		if again := tbl.String(); again != first {
			t.Fatalf("render %d differs from first:\n%s\nvs\n%s", i, again, first)
		}
	}
}

func TestBarClipping(t *testing.T) {
	// Values at and above the 2.5x ceiling render identically; the baseline
	// marker sits at the 1.0 position regardless of value.
	if Bar(2.5, 20) != Bar(1000, 20) {
		t.Error("values above the ceiling should clip to the same bar")
	}
	at := strings.IndexByte(Bar(0.1, 20), '|')
	if at2 := strings.IndexByte(Bar(2.4, 20), '|'); at != at2 {
		t.Errorf("baseline marker moved: %d vs %d", at, at2)
	}
	if at != 20/25*10 && at != int(1.0/2.5*20) {
		t.Errorf("baseline marker at %d", at)
	}
}

func TestReliabilitySummary(t *testing.T) {
	n := &stats.Node{}
	if got := ReliabilitySummary(n); got != "" {
		t.Fatalf("lossless node should render empty, got %q", got)
	}
	n.FaultDrops = 3
	n.Retransmits = 5
	n.DupSuppressed = 1
	got := ReliabilitySummary(n)
	if want := "drops=3 retransmits=5 dup-suppressed=1"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
	if strings.Contains(got, "corruptions") || strings.Contains(got, "delivery-failures") {
		t.Fatalf("zero counters must be omitted: %q", got)
	}
}
