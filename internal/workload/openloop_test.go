package workload

import (
	"testing"

	"nisim/internal/machine"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/sim"
)

// smallRPC is a modest five-request-per-microsecond-per-client load with
// the 32B/128B request/response mix of a small RPC.
var smallRPC = OpenLoopParams{MeanGap: 2 * sim.Microsecond, Requests: 50, ReqBytes: 32, RespBytes: 128, Seed: 1, DrainGrace: 50 * sim.Microsecond}

func olConfig(nodes int) machine.Config {
	cfg := machine.DefaultConfig(nic.CNI32Qm, 16)
	cfg.Nodes = nodes
	return cfg
}

// A lightly loaded lossless run completes every request and measures sane
// latencies.
func TestOpenLoopCompletesUnderLightLoad(t *testing.T) {
	p := smallRPC
	p.Requests = 20
	p.MeanGap = 4 * sim.Microsecond
	res, _ := RunOpenLoop(olConfig(4), p)
	if res.Issued != 3*20 {
		t.Fatalf("issued %d requests, want %d", res.Issued, 3*20)
	}
	if res.Completed != res.Issued {
		t.Fatalf("completed %d of %d under light lossless load", res.Completed, res.Issued)
	}
	if res.Latency.Count() != int(res.Completed) {
		t.Fatalf("latency has %d samples, want %d", res.Latency.Count(), res.Completed)
	}
	if res.P50() <= 0 || res.P99() < res.P50() {
		t.Fatalf("implausible quantiles p50=%v p99=%v", res.P50(), res.P99())
	}
	if res.OfferedRPS <= 0 || res.GoodputMBps <= 0 {
		t.Fatalf("rates not derived: offered=%v goodput=%v", res.OfferedRPS, res.GoodputMBps)
	}
	if res.Recovery != -1 {
		t.Fatalf("recovery %v reported without an outage", res.Recovery)
	}
}

// Equal seeds reproduce the run bit-identically; a different seed moves
// the arrival schedule.
func TestOpenLoopDeterministic(t *testing.T) {
	p := smallRPC
	p.Requests = 10
	run := func(seed uint64) (sim.Time, sim.Time) {
		q := p
		q.Seed = seed
		res, _ := RunOpenLoop(olConfig(3), q)
		return res.Elapsed, res.P99()
	}
	e1, l1 := run(7)
	e2, l2 := run(7)
	if e1 != e2 || l1 != l2 {
		t.Fatalf("same seed diverged: elapsed %v vs %v, p99 %v vs %v", e1, e2, l1, l2)
	}
	e3, _ := run(8)
	if e3 == e1 {
		t.Fatalf("different seeds produced identical elapsed %v", e1)
	}
}

// Past saturation with a drop-class admission policy, the run still
// terminates: some requests are lost, the rest are delivered, and the
// backlog shows up as latency measured from the scheduled arrivals.
func TestOpenLoopOverloadDegradesNotHangs(t *testing.T) {
	spec := nic.SpecFor(nic.CM5)
	spec.Overload = nic.OverloadPolicy{AdmitPct: 50, Refuse: nic.RefuseDrop}
	cfg := machine.DefaultConfig(nic.CM5, 4)
	cfg.Nodes = 4
	cfg.NISpec = &spec
	cfg.Net.Reliability = netsim.DefaultReliability()
	cfg.Net.Reliability.Deadline = 40 * sim.Microsecond
	cfg.Watchdog = true
	cfg.StallHorizon = 200 * sim.Microsecond

	p := smallRPC
	p.Requests = 30
	p.MeanGap = 200 * sim.Nanosecond // far past a fifo NI's service rate
	p.DrainGrace = 30 * sim.Microsecond
	res, st := RunOpenLoop(cfg, p)
	if res.Completed == 0 {
		t.Fatalf("nothing delivered under overload (issued %d)", res.Issued)
	}
	if res.Completed >= res.Issued {
		t.Fatalf("overload run lost nothing: completed %d of %d", res.Completed, res.Issued)
	}
	tot := st.Total()
	if tot.AdmitDrops == 0 {
		t.Fatalf("admission policy never dropped; stats: %+v", tot)
	}
}
