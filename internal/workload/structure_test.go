package workload

import (
	"testing"

	"nisim/internal/machine"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/stats"
)

func TestNeighbor3DGeometry(t *testing.T) {
	// 16 nodes factor into a 4x2x2 grid: corner nodes have 3 neighbors,
	// interior-x nodes 4.
	for node := 0; node < 16; node++ {
		nbrs := neighbor3D(node, 16)
		if len(nbrs) < 3 || len(nbrs) > 5 {
			t.Errorf("node %d has %d neighbors", node, len(nbrs))
		}
		seen := map[int]bool{}
		for _, nb := range nbrs {
			if nb == node {
				t.Errorf("node %d is its own neighbor", node)
			}
			if nb < 0 || nb >= 16 {
				t.Errorf("node %d has out-of-range neighbor %d", node, nb)
			}
			if seen[nb] {
				t.Errorf("node %d has duplicate neighbor %d", node, nb)
			}
			seen[nb] = true
		}
	}
}

func TestNeighbor3DSymmetric(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		for a := 0; a < n; a++ {
			for _, b := range neighbor3D(a, n) {
				found := false
				for _, back := range neighbor3D(b, n) {
					if back == a {
						found = true
					}
				}
				if !found {
					t.Fatalf("n=%d: %d neighbors %d but not vice versa", n, a, b)
				}
			}
		}
	}
}

func TestRngDeterministicPerNode(t *testing.T) {
	a := rng(Em3d, 3)
	b := rng(Em3d, 3)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("per-node rng not deterministic")
		}
	}
	if rng(Em3d, 3).Int63() == rng(Em3d, 4).Int63() && rng(Em3d, 3).Int63() == rng(Dsmc, 3).Int63() {
		t.Fatal("rng streams not distinguished by app/node")
	}
}

func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := ByName("tetris"); err == nil {
		t.Fatal("unknown app accepted")
	}
	for _, a := range Apps() {
		got, err := ByName(string(a))
		if err != nil || got != a {
			t.Fatalf("round trip failed for %s", a)
		}
	}
}

func TestParamsScale(t *testing.T) {
	if (Params{Iters: 0}).scale(10) != 1 {
		t.Fatal("zero scale did not clamp to 1")
	}
	if (Params{Iters: 1}).scale(10) != 10 {
		t.Fatal("unit scale changed the count")
	}
	if (Params{Iters: 0.5}).scale(10) != 5 {
		t.Fatal("half scale wrong")
	}
}

func TestSpsolveLevelCountsConsistent(t *testing.T) {
	// The DAG's expected-arrival computation must equal what is actually
	// sent: run on a fast NI and check counted conservation plus that every
	// node finished (the run completing proves the per-level waits matched).
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	st := Run(cfg, Spsolve, Params{Iters: 0.5})
	tot := st.Total()
	if tot.MessagesSent != tot.MessagesReceived {
		t.Fatalf("spsolve conservation: %d vs %d", tot.MessagesSent, tot.MessagesReceived)
	}
}

func TestMoldynBulkIsFragmented(t *testing.T) {
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	st := Run(cfg, Moldyn, Params{Iters: 0.4})
	tot := st.Total()
	if tot.FragmentsSent <= tot.MessagesSent {
		t.Fatalf("moldyn bulk messages not fragmented: %d fragments for %d messages",
			tot.FragmentsSent, tot.MessagesSent)
	}
}

func TestEm3dBuffersMatterMoreThanDsmc(t *testing.T) {
	// The defining workload property behind Figure 3a: em3d's bursts make
	// it more buffering-sensitive than dsmc's paced producer-consumer.
	sensitivity := func(app App) float64 {
		one := Run(machine.DefaultConfig(nic.CM5, 1), app, Params{Iters: 0.3}).ExecTime
		inf := Run(machine.DefaultConfig(nic.CM5, netsim.Infinite), app, Params{Iters: 0.3}).ExecTime
		return float64(one)/float64(inf) - 1
	}
	if em, ds := sensitivity(Em3d), sensitivity(Dsmc); em <= ds {
		t.Errorf("em3d buffering sensitivity (%.2f) not above dsmc's (%.2f)", em, ds)
	}
}

func TestAppsExerciseAllTimeCategories(t *testing.T) {
	cfg := machine.DefaultConfig(nic.CM5, 1)
	st := Run(cfg, Em3d, Params{Iters: 0.3})
	tot := st.Total()
	for _, c := range []int{stats.Compute, stats.Transfer, stats.Buffering} {
		if tot.TimeIn[c] <= 0 {
			t.Errorf("category %d empty", c)
		}
	}
}

func TestShmemAppsGenerateCoherenceTraffic(t *testing.T) {
	// appbt and barnes run on the shared-memory protocol: their runs must
	// show protocol request/data pairs, not just raw one-way messages.
	for _, app := range []App{Appbt, Barnes} {
		cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
		st := Run(cfg, app, Params{Iters: 0.4})
		sizes := st.Total().Sizes()
		if sizes.Count(12) == 0 {
			t.Errorf("%s: no 12-byte protocol messages", app)
		}
	}
}
