package sim

import (
	"strings"
	"testing"
)

func TestStallReportConcatenatesCheckers(t *testing.T) {
	e := NewEngine()
	e.RegisterQuiescence(func() string { return "widget-a stuck" })
	e.RegisterQuiescence(func() string { return "" }) // quiescent subsystem
	e.RegisterQuiescence(func() string { return "widget-b stuck" })
	r := e.StallReport()
	if !strings.Contains(r, "widget-a stuck") || !strings.Contains(r, "widget-b stuck") {
		t.Fatalf("report missing checker output: %q", r)
	}
}

func TestStallReportAfterRunDrainsWithHeldState(t *testing.T) {
	e := NewEngine()
	e.RegisterQuiescence(func() string { return "resource held" })
	// A process parks on a condition nobody ever signals: the event queue
	// drains with the process still live.
	e.Spawn("waiter", func(p *Process) { NewCond(e).Wait(p) })
	e.Run()
	if r := e.StallReport(); !strings.Contains(r, "resource held") {
		t.Fatalf("StallReport after Run = %q, want the checker's report", r)
	}
}

func TestStallReportEmptyWhenQuiescent(t *testing.T) {
	e := NewEngine()
	e.RegisterQuiescence(func() string { return "" })
	e.AtEvent(10*Nanosecond, func(any, uint64) {}, nil, 0)
	e.Run()
	if r := e.StallReport(); r != "" {
		t.Fatalf("StallReport after a cleanly quiescent run = %q, want empty", r)
	}
}
