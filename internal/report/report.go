// Package report renders experiment results as aligned ASCII tables and
// normalized bar charts, the forms the paper's tables and figures take on a
// terminal.
package report

import (
	"fmt"
	"io"
	"strings"

	"nisim/internal/stats"
)

// Table accumulates rows of cells and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; cells beyond the header width are dropped.
func (t *Table) Row(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var total int64
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		n, err := io.WriteString(w, strings.TrimRight(b.String(), " ")+"\n")
		total += int64(n)
		return err
	}
	if err := line(t.header); err != nil {
		return total, err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return total, err
	}
	for _, r := range t.rows {
		if err := line(r); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_, _ = t.WriteTo(&b)
	return b.String()
}

// Bar renders v (on a scale where 1.0 is the baseline) as a text bar of at
// most width characters, marking the baseline with '|'.
func Bar(v float64, width int) string {
	if v < 0 {
		v = 0
	}
	max := 2.5 // values above 2.5x are clipped
	if v > max {
		v = max
	}
	full := int(v / max * float64(width))
	baseline := int(1.0 / max * float64(width))
	var b strings.Builder
	for i := 0; i < width; i++ {
		switch {
		case i == baseline:
			b.WriteByte('|')
		case i < full:
			b.WriteByte('#')
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// ReliabilitySummary renders a node record's fault-injection and
// reliable-delivery counters as a compact one-line summary, omitting zero
// counters. It returns "" when no faults were injected and no recovery
// machinery fired — the lossless case prints nothing.
func ReliabilitySummary(n *stats.Node) string {
	var parts []string
	add := func(label string, v int64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", label, v))
		}
	}
	add("drops", n.FaultDrops)
	add("corruptions", n.FaultCorruptions)
	add("duplicates", n.FaultDuplicates)
	add("delays", n.FaultDelays)
	add("forced-bounces", n.ForcedBounces)
	add("ctl-drops", n.CtlDrops)
	add("retransmits", n.Retransmits)
	add("corrupt-dropped", n.CorruptDropped)
	add("dup-suppressed", n.DupSuppressed)
	add("delivery-failures", n.DeliveryFailures)
	return strings.Join(parts, " ")
}
