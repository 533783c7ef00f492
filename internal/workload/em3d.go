package workload

import (
	"nisim/internal/machine"
	"nisim/internal/msglayer"
)

// em3d models 3D electromagnetic-wave propagation over a bipartite graph:
// each iteration every node blasts a burst of small update messages (two
// integers: 12-byte payload, 20-byte message, 98% of traffic) down its
// remote edges through a custom update protocol, with a couple of 12-byte
// control messages (2%). Many updates are in flight at once — the bursty
// traffic that makes em3d's performance hinge on NI buffering (§6.2.1).
func em3dProgram(p Params, nodes int) func(n *machine.Node) {
	rs := newRunState(nodes)
	iters := p.scale(10)
	const (
		updatesPerIter = 120
		controlPerIter = 2
		updatePayload  = 12 // 20-byte message
		controlPayload = 4  // 12-byte message
		handlerCycles  = 45
		computePerIter = 30000
	)
	return func(n *machine.Node) {
		N := n.Size()
		r := rng(Em3d, n.ID)
		// Static bipartite graph: ~5 remote neighbor nodes (degree 5, 10%
		// remote in the paper's input), or every other node on a machine
		// too small to have 5.
		var nbrs []int
		for len(nbrs) < min(5, N-1) {
			d := r.Intn(N)
			if d == n.ID {
				continue
			}
			dup := false
			for _, e := range nbrs {
				if e == d {
					dup = true
				}
			}
			if !dup {
				nbrs = append(nbrs, d)
			}
		}
		n.EP.Register(hOneWay, rs.counted(func(ep *msglayer.Endpoint, m *msglayer.Message) {
			ep.Proc().Compute(handlerCycles)
		}))
		n.EP.Register(hControl, rs.counted(nil))
		rs.install(n)

		for it := 0; it < iters; it++ {
			// Local E/H field update.
			n.Proc.Compute(computePerIter)
			// Burst: all remote-edge updates back to back, no intervening
			// computation, grouped by destination — the edge lists are laid
			// out per neighbor, so each neighbor receives a concentrated
			// train of updates.
			perNbr := updatesPerIter / len(nbrs)
			for _, d := range nbrs {
				for u := 0; u < perNbr; u++ {
					rs.countedSend(n, d, hOneWay, updatePayload, 0)
				}
			}
			for c := 0; c < controlPerIter; c++ {
				rs.countedSend(n, nbrs[c%len(nbrs)], hControl, controlPayload, 0)
			}
			n.Barrier()
		}
		n.Barrier()
		rs.quiesce(n)
	}
}
