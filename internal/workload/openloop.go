package workload

import (
	"math"

	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// Open-loop request/response workload: every node but node 0 is a client
// issuing requests to the node-0 server on a deterministic seeded Poisson
// schedule. Unlike the closed-loop macrobenchmarks, arrival times are fixed
// in advance — a slow or overloaded server does not slow the arrival
// process down, it just grows the backlog — so the workload can drive any
// NI past saturation and measure how it degrades: goodput vs offered load,
// delivered-latency quantiles from the *scheduled* arrival instant (so
// queueing delay counts), and the drop/bounce/admission counters in
// internal/stats.

// Open-loop handler ids (below the machine-reserved range, clear of the
// macrobenchmark ids).
const (
	hOLRequest = 10
	hOLReply   = 11
	hOLDone    = 12
)

// OpenLoopParams scales one open-loop run.
type OpenLoopParams struct {
	// MeanGap is the mean inter-arrival gap per client (exponential
	// distribution, so arrivals are Poisson). Offered load per client is
	// 1/MeanGap requests per second.
	MeanGap sim.Time
	// Requests is the number of requests each client issues.
	Requests int
	// ReqBytes/RespBytes are the request and response payload sizes.
	ReqBytes, RespBytes int
	// Seed selects the arrival schedule; equal seeds give equal schedules.
	Seed uint64
	// DrainGrace is how long past its last scheduled arrival a client keeps
	// polling for outstanding responses before giving up on them. Lossy
	// runs need this bound or a dropped response would hang the client.
	DrainGrace sim.Time
	// OutageEnd, when positive, is the end of a fault-plane outage window;
	// the run then reports the recovery time (first response completion
	// after the outage lifts).
	OutageEnd sim.Time
}

// OpenLoopResult aggregates one run's delivered service.
type OpenLoopResult struct {
	// Issued and Completed count requests sent and responses delivered.
	Issued, Completed int64
	// OfferedRPS is the scheduled arrival rate (requests per second across
	// all clients) — what the clients asked for, not what they got.
	OfferedRPS float64
	// GoodputMBps is delivered response payload over the full run.
	GoodputMBps float64
	// Latency holds one sample per completed request: response delivery
	// minus *scheduled* arrival, so backlog waiting counts.
	Latency stats.Quantiles
	// Elapsed is the parallel execution time of the run.
	Elapsed sim.Time
	// Recovery is the gap between OutageEnd and the first response
	// completed after it; noRecovery (negative) when no outage was
	// configured or nothing completed after it.
	Recovery sim.Time
}

// noRecovery is the Recovery sentinel: no post-outage completion measured.
const noRecovery = -1 * sim.Picosecond

// P50 and P99 are the delivered-latency quantiles.
func (r *OpenLoopResult) P50() sim.Time { return r.Latency.At(0.50) }
func (r *OpenLoopResult) P99() sim.Time { return r.Latency.At(0.99) }

// olState is the shared state of one open-loop run. All mutable fields are
// shard-confined: done is written only by the node-0 server, and every
// client's counters live in its own clients slot (pre-sized at program
// construction, so no client ever grows a shared structure). Node 0 merges
// the per-client results in finish, after the final barrier — the barrier
// message chain is what publishes each client's writes to node 0's shard.
type olState struct {
	p       OpenLoopParams
	res     *OpenLoopResult
	clients []*olClient // indexed by node id; nil at the server slot
	done    int         // clients finished (server-side count)
}

// olClient is one client's bookkeeping, written only by its own node.
type olClient struct {
	sched      []sim.Time // scheduled arrival instant per request index
	issued     int64
	completed  int64
	firstAfter sim.Time // first completion at/after the outage end; 0 = none
	latency    stats.Quantiles
}

// expGap draws an exponential gap with mean m from a splitmix64 stream.
func expGap(s *uint64, m sim.Time) sim.Time {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	g := sim.Time(-float64(m) * math.Log(1-u))
	if g < 0 {
		g = 0
	}
	return g
}

// OpenLoopProgram returns the per-node program for one open-loop run on a
// machine of nodes nodes, filling res when the run completes. Like
// Program, each invocation must drive exactly one machine.Run. The client
// table is pre-sized here, in serial context, so a partitioned run never
// mutates shared state from two shards.
func OpenLoopProgram(p OpenLoopParams, res *OpenLoopResult, nodes int) func(n *machine.Node) {
	st := &olState{p: p, res: res, clients: make([]*olClient, nodes)}
	for i := 1; i < nodes; i++ {
		st.clients[i] = &olClient{sched: make([]sim.Time, p.Requests)}
	}
	res.Recovery = noRecovery
	return func(n *machine.Node) {
		if n.ID == 0 {
			st.server(n)
		} else {
			st.client(n)
		}
	}
}

// server serves requests until every client has reported done: each
// request is answered immediately from the handler (the reply inherits the
// request's arg, which carries the client's request index).
func (st *olState) server(n *machine.Node) {
	n.EP.Register(hOLRequest, func(ep *msglayer.Endpoint, m *msglayer.Message) {
		ep.Send(m.Src, hOLReply, st.p.RespBytes, m.Arg)
	})
	n.EP.Register(hOLDone, func(ep *msglayer.Endpoint, m *msglayer.Message) {
		st.done++
	})
	clients := n.Size() - 1
	n.Barrier()
	n.EP.WaitUntil(func() bool { return st.done >= clients })
	n.Barrier()
	// The final barrier releases can bounce off a still-backlogged client;
	// settle them before the program exits or nobody re-pushes the bounce.
	n.SettleSends()
	st.finish(n)
}

// client issues requests on its Poisson schedule, polling for responses
// while it waits out each gap, then drains within the grace window and
// reports done. The arrival clock never waits for the server: a request
// whose instant has passed is sent as soon as Send unblocks.
func (st *olState) client(n *machine.Node) {
	const pollQuantum = 200 * sim.Nanosecond
	c := st.clients[n.ID]
	cs := &c.latency
	n.EP.Register(hOLReply, func(ep *msglayer.Endpoint, m *msglayer.Message) {
		idx := int(m.Arg & 0xFFFFFFFF)
		now := n.Proc.P.Now()
		cs.Add(now - c.sched[idx])
		c.completed++
		if st.p.OutageEnd > 0 && now >= st.p.OutageEnd && c.firstAfter == 0 {
			c.firstAfter = now
		}
	})
	n.Barrier()

	seed := st.p.Seed ^ (uint64(n.ID) * 0x9e3779b97f4a7c15)
	next := n.Proc.P.Now()
	for i := 0; i < st.p.Requests; i++ {
		next += expGap(&seed, st.p.MeanGap)
		for n.Proc.P.Now() < next {
			if !n.EP.PollOne() {
				// The failed poll itself costs time; only sleep out what
				// remains of the gap.
				d := next - n.Proc.P.Now()
				if d > pollQuantum {
					d = pollQuantum
				}
				if d > 0 {
					n.Proc.P.SleepAs(stats.Compute, d)
				}
			}
		}
		c.sched[i] = next
		n.EP.Send(0, hOLRequest, st.p.ReqBytes, uint64(n.ID)<<32|uint64(i))
	}

	// Drain: outstanding responses may be queued, in flight, or gone
	// (dropped, evicted, or abandoned); give them the grace window.
	deadline := next + st.p.DrainGrace
	for c.completed < int64(st.p.Requests) && n.Proc.P.Now() < deadline {
		if !n.EP.PollOne() {
			n.Proc.P.SleepAs(stats.Compute, pollQuantum)
		}
	}
	c.issued = int64(st.p.Requests)
	n.EP.Send(0, hOLDone, 4, 0)
	n.Barrier()
	n.SettleSends()
	st.finish(n)
}

// finish merges the per-client counters and derives the run-wide rates
// once, on node 0 after the final barrier (every client published its
// counters before sending its done message, so everything is settled — and,
// on a partitioned machine, visible — by then). The merge walks clients in
// node-id order; the latency merge is order-insensitive by construction
// (see stats.Quantiles.Merge), so the result matches the serial run's
// chronological accumulation exactly.
func (st *olState) finish(n *machine.Node) {
	if n.ID != 0 {
		return
	}
	for _, c := range st.clients {
		if c == nil {
			continue
		}
		st.res.Issued += c.issued
		st.res.Completed += c.completed
		st.res.Latency.Merge(&c.latency)
		// Run-wide recovery is the earliest post-outage completion anywhere.
		if c.firstAfter > 0 {
			rec := c.firstAfter - st.p.OutageEnd
			if st.res.Recovery < 0 || rec < st.res.Recovery {
				st.res.Recovery = rec
			}
		}
	}
	st.res.Elapsed = n.Proc.P.Now()
	if st.res.Elapsed > 0 {
		secs := float64(st.res.Elapsed) / float64(sim.Second)
		st.res.OfferedRPS = float64(st.res.Issued) / secs
		st.res.GoodputMBps = float64(st.res.Completed*int64(st.p.RespBytes)) / 1e6 / secs
	}
}

// RunOpenLoop builds a machine with cfg, drives the open-loop workload on
// it, and returns the service-level result plus the machine statistics.
func RunOpenLoop(cfg machine.Config, p OpenLoopParams) (*OpenLoopResult, *stats.Machine) {
	var res OpenLoopResult
	m := machine.New(cfg)
	st := m.Run(OpenLoopProgram(p, &res, cfg.Nodes))
	return &res, st
}
