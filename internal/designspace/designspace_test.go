package designspace

import (
	"testing"

	"nisim/internal/micro"
	"nisim/internal/nic"
	"nisim/internal/sweep"
)

// TestStandardGridCoversTheSpace pins the sweep's coverage: all nine named
// designs plus at least 12 cross-product specs, every job buildable.
func TestStandardGridCoversTheSpace(t *testing.T) {
	g := StandardGrid(true)
	named, cross := 0, 0
	for _, s := range g.Specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
		if nic.KindOf(s) != nic.Custom {
			named++
		} else {
			cross++
		}
	}
	if named != len(nic.Kinds()) {
		t.Errorf("grid has %d named designs, want %d", named, len(nic.Kinds()))
	}
	if cross < 12 {
		t.Errorf("grid has %d cross-product designs, want >= 12", cross)
	}
	if got, want := len(g.Jobs()), 2*len(g.Specs)+4*len(g.CrossoverPayloads); got != want {
		t.Errorf("grid has %d jobs, want %d", got, want)
	}
	if g.CrossoverSpec == nil || g.CrossoverSpec.Send != nic.RDMAEngine {
		t.Error("grid's crossover spec must drive the RDMA send engine")
	}
}

// TestCrossoverMeasuresBothProtocols runs the protocol-crossover sub-grid
// on a reduced payload ladder and checks the robust directional claims:
// both protocols deliver, and at the smallest payload the rendezvous
// handshake's extra round trip makes it strictly slower than eager (the
// whole reason a size threshold exists).
func TestCrossoverMeasuresBothProtocols(t *testing.T) {
	g := GridSpec{
		Warmup: 50, Rounds: 10, Msgs: 40,
		CrossoverSpec:     &nic.Spec{Send: nic.RDMAEngine, Recv: nic.CoherentEngine, Buffering: nic.MemoryRing},
		CrossoverPayloads: []int{256, 4096},
	}

	rows := g.CrossoverRows(sweep.RunSerial(g.Jobs()))
	if len(rows) != 2 {
		t.Fatalf("got %d crossover rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.EagerLatUS <= 0 || r.RdvLatUS <= 0 || r.EagerBandMB <= 0 || r.RdvBandMB <= 0 {
			t.Errorf("payload %d: dead cell: %+v", r.Payload, r)
		}
	}
	if small := rows[0]; small.RdvLatUS <= small.EagerLatUS {
		t.Errorf("at %dB rendezvous (%.2fus) should pay for its handshake vs eager (%.2fus)",
			small.Payload, small.RdvLatUS, small.EagerLatUS)
	}
}

// TestNamedSpecsMatchKindPath: building a machine from a named design's
// Spec must measure identically to building it from the Kind, since both
// construct the same composed NI.
func TestNamedSpecsMatchKindPath(t *testing.T) {
	for _, k := range []nic.Kind{nic.CM5, nic.AP3000, nic.MemoryChannel, nic.CNI32Qm} {
		viaSpec := micro.RoundTripCfg(config(nic.SpecFor(k)), 64, 50, 10)
		viaKind := micro.RoundTrip(k, 8, 64, 50, 10)
		if viaSpec != viaKind {
			t.Errorf("%s: spec path measured %v, kind path %v", k.ShortName(), viaSpec, viaKind)
		}
		if viaSpec <= 0 {
			t.Errorf("%s: non-positive round trip %v", k.ShortName(), viaSpec)
		}
	}
}
