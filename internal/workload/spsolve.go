package workload

import (
	"math/rand"

	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// spsolve is the very fine-grained iterative sparse-matrix solver: active
// messages propagate down the edges of a DAG, all computation (a single
// double-word addition) happens inside the handlers, and deep bursts of
// 20-byte messages (91%) make the receive side — and NI buffering — the
// bottleneck (§6.2.1). 8-byte (6%) and 12-byte (3%) control messages round
// out the mix, Table 4.
func spsolveProgram(p Params, nodes int) func(n *machine.Node) {
	rs := newRunState(nodes)
	levels := p.scale(12)
	const (
		verticesPerLevel = 30
		tinyPerLevel     = 2 // 8-byte messages
		ctrlPerLevel     = 1 // 12-byte messages
		edgePayload      = 12
		handlerCycles    = 15 // one double-word addition plus dispatch
	)
	// edgeDest computes, globally deterministically, the destination of
	// vertex (level, node, k)'s outgoing edge — every node can therefore
	// derive how many messages it will receive per level. Most of a node's
	// edges funnel to a single next-level owner (the DAG's chain structure),
	// which is what makes spsolve's bursts overwhelm a receiver with scant
	// buffering; the rest scatter irregularly, each drawn from er reseeded
	// by the edge: the calling node's own generator, so no generator is
	// built per edge and none is shared between nodes.
	edgeDest := func(er *rand.Rand, level, node, k, N int) int {
		if k%10 != 0 {
			// Trains of edges funnel to three next-level owners, giving each
			// receiver a fan-in of ~3 bursty upstream senders. On fewer than
			// four nodes an owner can wrap around to the node itself; its
			// edges go to the next node instead.
			d := (node + 1 + (level+k/20)%3) % N
			if d == node {
				d = (node + 1) % N
			}
			return d
		}
		er.Seed(int64(level)*1_000_003 + int64(node)*8009 + int64(k))
		d := er.Intn(N - 1)
		if d >= node {
			d++
		}
		return d
	}
	return func(n *machine.Node) {
		N := n.Size()
		er := rand.New(rand.NewSource(0))
		expected := make([]int, levels+1)
		for l := 0; l < levels; l++ {
			for src := 0; src < N; src++ {
				if src == n.ID {
					continue
				}
				for k := 0; k < verticesPerLevel; k++ {
					if edgeDest(er, l, src, k, N) == n.ID {
						expected[l]++
					}
				}
			}
		}
		got := make([]int, levels+1)
		n.EP.Register(hOneWay, rs.counted(func(ep *msglayer.Endpoint, m *msglayer.Message) {
			ep.Proc().Compute(handlerCycles)
			got[int(m.Arg)]++
		}))
		n.EP.Register(hControl, rs.counted(nil))
		rs.install(n)

		r := rng(Spsolve, n.ID)
		for l := 0; l < levels; l++ {
			// Fire this level's vertices: a deep burst of tiny messages.
			for k := 0; k < verticesPerLevel; k++ {
				rs.countedSend(n, edgeDest(er, l, n.ID, k, N), hOneWay, edgePayload, uint64(l))
			}
			for i := 0; i < tinyPerLevel; i++ {
				d := r.Intn(N - 1)
				if d >= n.ID {
					d++
				}
				rs.countedSend(n, d, hControl, 0, 0)
			}
			for i := 0; i < ctrlPerLevel; i++ {
				d := r.Intn(N - 1)
				if d >= n.ID {
					d++
				}
				rs.countedSend(n, d, hControl, 4, 0)
			}
			// Wait for this level's incoming edges before firing the next —
			// the DAG's data dependence; no global barrier.
			n.EP.WaitUntil(func() bool { return got[l] >= expected[l] })
			// Tiny per-level local work.
			n.Proc.P.SleepAs(stats.Compute, 800*sim.Nanosecond)
		}
		n.Barrier()
		rs.quiesce(n)
	}
}
