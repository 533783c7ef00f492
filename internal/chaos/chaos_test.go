package chaos

import (
	"bytes"
	"strings"
	"testing"

	"nisim/internal/nic"
	"nisim/internal/sweep"
)

// reducedGrid keeps the regression tests fast: three design points (one
// fifo, one register-window, one coherent) across every load and mix.
func reducedGrid() GridSpec {
	g := StandardGrid(true)
	g.Specs = []nic.Spec{
		nic.SpecFor(nic.CM5),
		nic.SpecFor(nic.CM5SingleCycle),
		nic.SpecFor(nic.CNI32Qm),
	}
	g.Requests = 12
	return g
}

// TestStandardGridCoversTheMatrix pins the acceptance floor: all nine named
// design points x at least three load levels x at least two fault mixes,
// every composed spec (with its mix's overload policy) buildable, and a
// recovery-capable mix present.
func TestStandardGridCoversTheMatrix(t *testing.T) {
	g := StandardGrid(true)
	if len(g.Specs) < 9 {
		t.Errorf("grid has %d specs, want >= 9", len(g.Specs))
	}
	if len(g.Loads) < 3 {
		t.Errorf("grid has %d load levels, want >= 3", len(g.Loads))
	}
	if len(g.Mixes) < 2 {
		t.Errorf("grid has %d fault mixes, want >= 2", len(g.Mixes))
	}
	outage := false
	for _, mx := range g.Mixes {
		if mx.OutageEnd > 0 {
			outage = true
		}
		for _, s := range g.Specs {
			spec := s
			spec.Overload = mx.Overload
			if err := spec.Validate(); err != nil {
				t.Errorf("%s under mix %s: %v", s.Name(), mx.Name, err)
			}
		}
	}
	if !outage {
		t.Error("no mix exercises an outage window (recovery-time column dead)")
	}
	if got, want := len(g.Jobs()), len(g.Specs)*len(g.Loads)*len(g.Mixes); got != want {
		t.Errorf("grid has %d jobs, want %d", got, want)
	}
}

// TestChaosSweepIsDeterministic is the nisim chaos half of the
// orchestrator determinism regression: the grid swept with eight workers
// must produce byte-identical text and canonical JSON to a serial sweep,
// and no cell may hang or end in a non-watchdog error.
func TestChaosSweepIsDeterministic(t *testing.T) {
	g := reducedGrid()

	serial := sweep.Run(sweep.Config{Jobs: 1}, g.Jobs())
	parallel := sweep.Run(sweep.Config{Jobs: 8}, g.Jobs())

	for _, r := range serial {
		if r.TimedOut {
			t.Errorf("%s timed out", r.ID)
		}
		if r.Err != "" && !strings.Contains(r.Err, "machine:") {
			t.Errorf("%s failed outside the watchdog: %s", r.ID, r.Err)
		}
	}

	serialText := Format(g, g.Rows(serial))
	parallelText := Format(g, g.Rows(parallel))
	if serialText != parallelText {
		t.Errorf("parallel text differs from serial:\nserial:\n%s\nparallel:\n%s", serialText, parallelText)
	}

	serialJSON, err := sweep.NewReport("chaos", g.Seed, sweep.Config{Jobs: 1}, serial, 1).
		Canonical().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	parallelJSON, err := sweep.NewReport("chaos", g.Seed, sweep.Config{Jobs: 8}, parallel, 2).
		Canonical().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Errorf("parallel canonical JSON differs from serial:\nserial:\n%s\nparallel:\n%s", serialJSON, parallelJSON)
	}
	if !strings.Contains(string(serialJSON), sweep.Schema) {
		t.Errorf("report does not carry schema %q", sweep.Schema)
	}
}

// TestChaosProtocolSweepIsDeterministic is the protocol sub-grid's half of
// the determinism regression: the eager-vs-rendezvous grid swept with
// eight workers must match a serial sweep byte for byte, and no cell may
// hang — the jobs=1-vs-8 identity gate for the rendezvous protocol under
// overload.
func TestChaosProtocolSweepIsDeterministic(t *testing.T) {
	g := ProtocolGrid(true)
	g.Requests = 12

	serial := sweep.Run(sweep.Config{Jobs: 1}, g.Jobs())
	parallel := sweep.Run(sweep.Config{Jobs: 8}, g.Jobs())

	for _, r := range serial {
		if r.TimedOut || r.Err != "" {
			t.Errorf("%s: timed_out=%v err=%q", r.ID, r.TimedOut, r.Err)
		}
	}
	serialText := Format(g, g.Rows(serial))
	parallelText := Format(g, g.Rows(parallel))
	if serialText != parallelText {
		t.Errorf("parallel text differs from serial:\nserial:\n%s\nparallel:\n%s", serialText, parallelText)
	}
}

// TestChaosProtocolGridMeasuresTheBypass pins what the protocol sub-grid
// exists to show: at saturation, the eager mix pushes its 2 KB requests
// through the admission-controlled receive queue (visible as bounces),
// while the rendezvous mix moves the same bytes with one-sided puts that
// never consult the admission gate — no bounces, no admission drops, and
// at least the eager mix's completions.
func TestChaosProtocolGridMeasuresTheBypass(t *testing.T) {
	g := ProtocolGrid(true)
	g.Loads = g.Loads[2:3] // sat
	g.Requests = 20
	rows := g.Rows(sweep.Run(sweep.Config{Jobs: 1}, g.Jobs()))
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	eager, rdv := rows[0], rows[1]
	if eager.Err != "" || rdv.Err != "" {
		t.Fatalf("cell errors: eager=%q rdv=%q", eager.Err, rdv.Err)
	}
	if eager.Metrics["bounces"] == 0 {
		t.Error("eager mix at saturation should bounce at the admission watermark")
	}
	if got := rdv.Metrics["admit_drops"] + rdv.Metrics["admit_bounces"] + rdv.Metrics["admit_evictions"]; got != 0 {
		t.Errorf("rendezvous mix hit the admission gate %v times; one-sided transfers must bypass it", got)
	}
	if rdv.Metrics["completed"] < eager.Metrics["completed"] {
		t.Errorf("rendezvous completed %v < eager %v at saturation",
			rdv.Metrics["completed"], eager.Metrics["completed"])
	}
}

// TestChaosCellsMeasureDegradation runs one fifo design point across the
// load ladder and checks the cells actually measure what the columns
// claim: saturation loses requests, the outage mix reports a recovery
// time, and the lossy mix reports fault recovery work.
func TestChaosCellsMeasureDegradation(t *testing.T) {
	g := reducedGrid()
	g.Specs = []nic.Spec{nic.SpecFor(nic.CM5)}
	results := sweep.Run(sweep.Config{Jobs: 1}, g.Jobs())
	rows := g.Rows(results)

	cell := func(load, mix string) Row {
		for _, r := range rows {
			if r.Load.Name == load && r.Mix.Name == mix {
				return r
			}
		}
		t.Fatalf("no cell %s/%s", load, mix)
		return Row{}
	}

	lowClean := cell("low", "clean")
	if lowClean.Err != "" || lowClean.Metrics["completed"] != lowClean.Metrics["issued"] {
		t.Errorf("low/clean should complete everything: %+v err=%q", lowClean.Metrics, lowClean.Err)
	}
	satClean := cell("sat", "clean")
	if satClean.Err == "" && satClean.Metrics["p99_us"] <= lowClean.Metrics["p99_us"] {
		t.Errorf("saturation did not raise p99: low %.1fus vs sat %.1fus",
			lowClean.Metrics["p99_us"], satClean.Metrics["p99_us"])
	}
	outage := cell("mid", "outage")
	if outage.Err == "" {
		if _, ok := outage.Metrics["recovery_us"]; !ok {
			t.Errorf("outage cell reports no recovery time: %+v", outage.Metrics)
		}
		lost := outage.Metrics["admit_drops"] + outage.Metrics["delivery_failures"] + outage.Metrics["admit_evictions"]
		if lost == 0 {
			t.Errorf("outage cell lost nothing: %+v", outage.Metrics)
		}
	}
}
