// Package workload implements the seven macrobenchmarks of Table 4 as
// synthetic kernels that reproduce each application's communication
// pattern: message-size mix, destinations, burstiness, and the balance of
// computation to communication. The kernels run on the messaging layer
// exactly as the originals ran on Tempest: request-response shared-memory
// protocols for appbt and barnes, fine-grain one-way active messages for
// dsmc/em3d/spsolve, bulk reduction over virtual channels for moldyn, and
// batched single-producer/multiple-consumer streams for unstructured.
package workload

import (
	"fmt"
	"math/rand"

	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// App names one of the seven macrobenchmarks.
type App string

// The seven macrobenchmarks (Table 4).
const (
	Appbt        App = "appbt"
	Barnes       App = "barnes"
	Dsmc         App = "dsmc"
	Em3d         App = "em3d"
	Moldyn       App = "moldyn"
	Spsolve      App = "spsolve"
	Unstructured App = "unstructured"
)

// Apps lists the seven macrobenchmarks in the paper's order.
func Apps() []App {
	return []App{Appbt, Barnes, Dsmc, Em3d, Moldyn, Spsolve, Unstructured}
}

// ByName returns the App for a name.
func ByName(s string) (App, error) {
	for _, a := range Apps() {
		if string(a) == s {
			return a, nil
		}
	}
	return "", fmt.Errorf("workload: unknown application %q", s)
}

// Params scales a workload run.
type Params struct {
	// Iters scales the outer iteration count; 1.0 is the standard run used
	// by the figure harnesses, smaller values make tests fast.
	Iters float64
}

func (p Params) scale(n int) int {
	v := int(float64(n)*p.Iters + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// Program returns the per-node program for app on a machine of nodes
// nodes. Each invocation creates a fresh shared run state, so a Program
// value must drive exactly one machine.Run. The node count lets the
// shared-memory kernels pre-size their protocol tables in serial context,
// which is what makes them safe on a partitioned machine
// (machine.Config.Shards > 1).
func Program(app App, p Params, nodes int) func(n *machine.Node) {
	switch app {
	case Appbt:
		return appbtProgram(p, nodes)
	case Barnes:
		return barnesProgram(p, nodes)
	case Dsmc:
		return dsmcProgram(p, nodes)
	case Em3d:
		return em3dProgram(p, nodes)
	case Moldyn:
		return moldynProgram(p, nodes)
	case Spsolve:
		return spsolveProgram(p, nodes)
	case Unstructured:
		return unstructuredProgram(p, nodes)
	default:
		panic(fmt.Sprintf("workload: unknown app %q", app))
	}
}

// Run builds a machine with cfg, runs app on it, and returns the
// statistics.
func Run(cfg machine.Config, app App, p Params) *stats.Machine {
	m := machine.New(cfg)
	return m.Run(Program(app, p, cfg.Nodes))
}

// Application handler ids (must stay below the machine-reserved range).
const (
	hRequest = iota + 1 // shared-memory read request
	hReply              // shared-memory data reply
	hOneWay             // fine-grain one-way update
	hBulk               // bulk data
	hControl            // small control message
)

// hQuiesce carries a per-destination sent-count report (runState.quiesce).
// Like the machine's barrier messages it is runtime-internal traffic, not
// part of the application's Table 4 message mix, so it lives in the
// reserved handler range (excluded from the size histogram and given
// control priority under admission-controlled specs). The machine layer
// owns ids from 250 up.
const hQuiesce = msglayer.ReservedHandlerBase + 10

// runState is the quiescence ledger of one application run. Every mutable
// field lives in the slot of the node that writes it, so a partitioned
// machine never has two shard goroutines touching the same memory: a
// node's own counted sends (with a per-destination breakdown) go in its
// slot, as do the deliveries its handlers dispatched. Global agreement is
// reached by messages alone — quiesce has each node report its
// per-destination send counts to the destinations themselves, and each
// node drains until every peer has reported and everything promised to it
// has arrived. This is the message-confined replacement for the old
// shared {sent, recvd} pair, which only the serial engine could host.
type runState struct {
	nodes []nodeCounts
}

// nodeCounts is one node's shard-confined slot: sent/sentTo are written
// only by the owning node's sends, recvd only by its delivery handlers,
// expect/reports only by its hQuiesce handler.
type nodeCounts struct {
	sent   int64   // counted one-way messages issued by this node
	sentTo []int64 // ...broken down by destination
	recvd  int64   // counted deliveries dispatched on this node
	expect int64   // counted messages peers promised this node (hQuiesce)
	report int     // peers that have reported (hQuiesce)
}

// newRunState sizes the ledger for a machine of nodes nodes.
func newRunState(nodes int) *runState {
	rs := &runState{nodes: make([]nodeCounts, nodes)}
	for i := range rs.nodes {
		rs.nodes[i].sentTo = make([]int64, nodes)
	}
	return rs
}

// install registers the quiescence report handler on n's endpoint. Call
// once per node, alongside the app's own handler registrations.
func (rs *runState) install(n *machine.Node) {
	n.EP.Register(hQuiesce, func(ep *msglayer.Endpoint, m *msglayer.Message) {
		c := &rs.nodes[ep.NodeID()]
		c.report++
		c.expect += int64(m.Arg)
	})
}

// countedSend sends a one-way message that participates in the quiescence
// count.
func (rs *runState) countedSend(n *machine.Node, dst, handler, payload int, arg uint64) {
	c := &rs.nodes[n.ID]
	c.sent++
	c.sentTo[dst]++
	n.EP.Send(dst, handler, payload, arg)
}

// counted wraps a handler so its deliveries are counted for quiescence.
func (rs *runState) counted(h msglayer.Handler) msglayer.Handler {
	return func(ep *msglayer.Endpoint, m *msglayer.Message) {
		rs.nodes[ep.NodeID()].recvd++
		if h != nil {
			h(ep, m)
		}
	}
}

// quiesce drives the run to global delivery of all counted one-way
// messages, then synchronizes. Call after a barrier that guarantees no new
// counted sends will be issued: each node reports its final per-destination
// send counts to the destinations (hQuiesce), then drains until all N-1
// peers have reported and every promised message has been dispatched. The
// exit condition depends only on message arrivals, so it fires at the same
// simulated instant on a serial and a partitioned machine.
func (rs *runState) quiesce(n *machine.Node) {
	c := &rs.nodes[n.ID]
	for dst := range rs.nodes {
		if dst != n.ID {
			// Header-only (8-byte) report: the count rides in the Arg word,
			// like the machine barrier's own control messages.
			n.EP.Send(dst, hQuiesce, 0, uint64(c.sentTo[dst]))
		}
	}
	for c.report < len(rs.nodes)-1 || c.recvd < c.expect {
		if !n.EP.PollOne() {
			n.Proc.P.SleepAs(stats.Compute, 500*sim.Nanosecond)
		}
	}
	n.Barrier()
}

// rng returns a deterministic per-node random stream for an app run.
func rng(app App, node int) *rand.Rand {
	seed := int64(1)
	for _, c := range app {
		seed = seed*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1000003 + int64(node)*7919))
}

// neighbor3D returns the node ids adjacent to node in a 4x2x2 (or generally
// X×Y×Z) decomposition of n nodes, the appbt subcube topology.
func neighbor3D(node, n int) []int {
	dims := [3]int{1, 1, 1}
	// Factor n into up to three near-equal dimensions.
	rem := n
	for i := 0; rem > 1; i = (i + 1) % 3 {
		for f := 2; f <= rem; f++ {
			if rem%f == 0 {
				dims[i] *= f
				rem /= f
				break
			}
		}
	}
	x, y, z := node%dims[0], node/dims[0]%dims[1], node/(dims[0]*dims[1])
	var out []int
	add := func(xx, yy, zz int) {
		if xx < 0 || xx >= dims[0] || yy < 0 || yy >= dims[1] || zz < 0 || zz >= dims[2] {
			return
		}
		id := xx + yy*dims[0] + zz*dims[0]*dims[1]
		if id != node {
			out = append(out, id)
		}
	}
	add(x-1, y, z)
	add(x+1, y, z)
	add(x, y-1, z)
	add(x, y+1, z)
	add(x, y, z-1)
	add(x, y, z+1)
	return out
}
