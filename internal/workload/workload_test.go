package workload

import (
	"fmt"
	"math"
	"testing"

	"nisim/internal/machine"
	"nisim/internal/nic"
)

func quickParams() Params { return Params{Iters: 0.4} }

func TestAllAppsComplete(t *testing.T) {
	for _, app := range Apps() {
		app := app
		t.Run(string(app), func(t *testing.T) {
			cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
			st := Run(cfg, app, quickParams())
			tot := st.Total()
			if tot.MessagesSent == 0 {
				t.Fatal("no messages sent")
			}
			if tot.MessagesSent != tot.MessagesReceived {
				t.Fatalf("conservation violated: sent %d received %d", tot.MessagesSent, tot.MessagesReceived)
			}
		})
	}
}

// Every app runs to completion on the smallest machines nisim accepts:
// em3d draws its neighbors from fewer than 5 peers, and spsolve's edge
// trains would otherwise wrap around to the sending node.
func TestAppsRunOnSmallMachines(t *testing.T) {
	for _, app := range Apps() {
		for nodes := 2; nodes <= 6; nodes++ {
			app, nodes := app, nodes
			t.Run(fmt.Sprintf("%s/%d", app, nodes), func(t *testing.T) {
				cfg := machine.DefaultConfig(nic.CM5, 8)
				cfg.Nodes = nodes
				st := Run(cfg, app, Params{Iters: 0.1})
				tot := st.Total()
				if tot.MessagesSent == 0 || tot.MessagesSent != tot.MessagesReceived {
					t.Fatalf("sent %d, received %d", tot.MessagesSent, tot.MessagesReceived)
				}
			})
		}
	}
}

// Table 4 message-size mixes: each app's histogram must peak where the
// paper reports, within tolerance.
func TestTable4MessageMix(t *testing.T) {
	type peak struct {
		size int
		frac float64
		tol  float64
	}
	targets := map[App][]peak{
		Appbt:        {{12, 0.67, 0.08}, {32, 0.32, 0.08}},
		Barnes:       {{12, 0.67, 0.08}, {16, 0.04, 0.03}, {140, 0.29, 0.08}},
		Dsmc:         {{12, 0.45, 0.08}, {44, 0.25, 0.08}, {140, 0.26, 0.08}},
		Em3d:         {{12, 0.02, 0.03}, {20, 0.98, 0.04}},
		Moldyn:       {{8, 0.05, 0.04}, {12, 0.65, 0.08}, {140, 0.27, 0.08}, {3084, 0.02, 0.02}},
		Spsolve:      {{8, 0.06, 0.04}, {12, 0.03, 0.03}, {20, 0.91, 0.06}},
		Unstructured: {{8, 0.35, 0.08}},
	}
	for app, peaks := range targets {
		app, peaks := app, peaks
		t.Run(string(app), func(t *testing.T) {
			cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
			st := Run(cfg, app, Params{Iters: 1})
			sizes := st.Total().Sizes()
			if sizes.Total() < 100 {
				t.Fatalf("too few messages (%d) for a distribution check", sizes.Total())
			}
			for _, pk := range peaks {
				got := sizes.Fraction(pk.size)
				if math.Abs(got-pk.frac) > pk.tol {
					t.Errorf("size %dB: fraction %.3f, paper %.2f (tol %.2f); histogram: %s",
						pk.size, got, pk.frac, pk.tol, sizes)
				}
			}
		})
	}
}

// The unstructured app's non-control messages average ~351 bytes (Table 4).
func TestUnstructuredAverageSize(t *testing.T) {
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	st := Run(cfg, Unstructured, Params{Iters: 1})
	sizes := st.Total().Sizes()
	// Average over the 12..1812 range (excluding the 8-byte peak).
	var sum, cnt float64
	for _, s := range sizes.Peaks(100) {
		if s == 8 {
			continue
		}
		c := float64(sizes.Count(s))
		sum += float64(s) * c
		cnt += c
	}
	avg := sum / cnt
	if avg < 280 || avg > 430 {
		t.Fatalf("bulk average size %.0f, paper reports 351", avg)
	}
}

// Every app must complete on every NI with minimal buffering — the
// deadlock-avoidance discipline at work.
func TestAppsCompleteOnAllNIsOneBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	p := Params{Iters: 0.2}
	for _, kind := range nic.PaperSeven() {
		kind := kind
		t.Run(kind.ShortName(), func(t *testing.T) {
			for _, app := range Apps() {
				cfg := machine.DefaultConfig(kind, 1)
				st := Run(cfg, app, p)
				tot := st.Total()
				if tot.MessagesSent != tot.MessagesReceived {
					t.Fatalf("%s: sent %d != received %d", app, tot.MessagesSent, tot.MessagesReceived)
				}
			}
		})
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() float64 {
		cfg := machine.DefaultConfig(nic.AP3000, 2)
		return Run(cfg, Em3d, quickParams()).ExecTime.Microseconds()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
