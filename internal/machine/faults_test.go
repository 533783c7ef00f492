package machine_test

import (
	"strings"
	"testing"

	"nisim/internal/faults"
	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

const hFault = 7

// faultWorkload streams count 512-byte messages node0 -> node1 on m and
// returns the machine's stats plus the number of application messages
// delivered.
func faultWorkload(t *testing.T, m *machine.Machine, count int) (*stats.Machine, int) {
	t.Helper()
	received := 0
	for _, n := range m.Nodes {
		n.EP.Register(hFault, func(ep *msglayer.Endpoint, msg *msglayer.Message) { received++ })
	}
	st := m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			for i := 0; i < count; i++ {
				n.EP.Send(1, hFault, 512, 0)
			}
			n.Barrier()
			return
		}
		n.EP.WaitUntil(func() bool { return received >= count })
		n.Barrier()
	})
	return st, received
}

// nodeSnap is the comparable projection of a stats record used to assert
// bit-identical runs (stats.Node itself holds an unexported histogram
// pointer, so whole-struct equality is meaningless).
type nodeSnap struct {
	msgsSent, msgsRecv, bytesSent, bytesRecv int64
	fragsSent, fragsRecv                     int64
	bounces, retries                         int64
	bus, c2c, m2c                            int64
	drops, corrupts, dups, delays, fBounces  int64
	ctlDrops, retrans, corruptDrop, dupSup   int64
	failures                                 int64
}

func snap(n *stats.Node) nodeSnap {
	return nodeSnap{
		n.MessagesSent, n.MessagesReceived, n.BytesSent, n.BytesReceived,
		n.FragmentsSent, n.FragmentsReceived,
		n.Bounces, n.Retries,
		n.BusTransactions, n.CacheToCache, n.MemToCache,
		n.FaultDrops, n.FaultCorruptions, n.FaultDuplicates, n.FaultDelays, n.ForcedBounces,
		n.CtlDrops, n.Retransmits, n.CorruptDropped, n.DupSuppressed,
		n.DeliveryFailures,
	}
}

func faultCfg(kind nic.Kind, rate float64, seed uint64) machine.Config {
	cfg := machine.DefaultConfig(kind, 8)
	cfg.Nodes = 2
	cfg.Net.Reliability = netsim.DefaultReliability()
	cfg.Faults = faults.Config{
		Seed: seed, Drop: rate, Corrupt: rate / 2, Duplicate: rate / 2,
		CtlDrop: rate / 2, Delay: rate, MaxDelay: 500 * sim.Nanosecond,
		ForceBounce: rate / 4,
	}
	return cfg
}

func TestFaultRunsAreDeterministic(t *testing.T) {
	// Same seed, same workload: bit-identical execution time and counters.
	a, recvA := faultWorkload(t, machine.New(faultCfg(nic.CNI32Qm, 0.05, 11)), 40)
	b, recvB := faultWorkload(t, machine.New(faultCfg(nic.CNI32Qm, 0.05, 11)), 40)
	if recvA != 40 || recvB != 40 {
		t.Fatalf("lost messages despite reliability: %d / %d of 40", recvA, recvB)
	}
	if a.ExecTime != b.ExecTime {
		t.Fatalf("exec time diverged: %v vs %v", a.ExecTime, b.ExecTime)
	}
	ta, tb := a.Total(), b.Total()
	if snap(ta) != snap(tb) {
		t.Fatalf("stats diverged between identical seeded runs:\n%+v\n%+v", snap(ta), snap(tb))
	}
	// A different seed must produce a different fault pattern.
	c, _ := faultWorkload(t, machine.New(faultCfg(nic.CNI32Qm, 0.05, 12)), 40)
	if tc := c.Total(); tc.FaultDrops == ta.FaultDrops && tc.Retransmits == ta.Retransmits &&
		c.ExecTime == a.ExecTime {
		t.Fatal("seeds 11 and 12 produced an identical run")
	}
}

func TestZeroRatePlaneMatchesNilPlane(t *testing.T) {
	// A zero-rate injector draws random variates but issues no faults; the
	// run must be bit-identical to one with no fault plane installed.
	base := machine.DefaultConfig(nic.CNI32Qm, 8)
	base.Nodes = 2

	plain := machine.New(base)
	withPlane := machine.New(base)
	withPlane.Net.SetFaultPlane(faults.New(faults.Config{Seed: 99}))

	stPlain, recvPlain := faultWorkload(t, plain, 25)
	stPlane, recvPlane := faultWorkload(t, withPlane, 25)
	if recvPlain != 25 || recvPlane != 25 {
		t.Fatalf("delivery mismatch: %d / %d", recvPlain, recvPlane)
	}
	if stPlain.ExecTime != stPlane.ExecTime {
		t.Fatalf("zero-rate plane drifted execution: %v vs %v", stPlain.ExecTime, stPlane.ExecTime)
	}
	if a, b := stPlain.Total(), stPlane.Total(); snap(a) != snap(b) {
		t.Fatalf("zero-rate plane drifted stats:\n%+v\n%+v", snap(a), snap(b))
	}
}

func TestDefaultRunTouchesNoReliabilityMachinery(t *testing.T) {
	// The default config (no Faults, no Reliability) must leave every
	// fault-injection and recovery counter at zero: the lossless fast path
	// is untouched.
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	cfg.Nodes = 2
	st, received := faultWorkload(t, machine.New(cfg), 20)
	if received != 20 {
		t.Fatalf("delivered %d of 20", received)
	}
	tot := st.Total()
	if tot.FaultDrops != 0 || tot.FaultCorruptions != 0 || tot.FaultDuplicates != 0 ||
		tot.FaultDelays != 0 || tot.ForcedBounces != 0 || tot.CtlDrops != 0 ||
		tot.Retransmits != 0 || tot.CorruptDropped != 0 || tot.DupSuppressed != 0 ||
		tot.DeliveryFailures != 0 {
		t.Fatalf("lossless default run fired reliability machinery: %+v", tot)
	}
}

// watchdogDiag runs faultWorkload at one and two engine shards, requires
// both runs to panic with byte-identical diagnostics (the serial tick and
// the partitioned barrier sample the same sim times), and returns it.
func watchdogDiag(t *testing.T, cfg machine.Config, count int) string {
	t.Helper()
	var diags []string
	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("shards=%d: stranded run did not panic", shards)
				}
				diags = append(diags, r.(string))
			}()
			faultWorkload(t, machine.New(cfg), count)
		}()
	}
	if diags[0] != diags[1] {
		t.Fatalf("diagnostic differs across shard counts:\nshards=1:\n%s\nshards=2:\n%s", diags[0], diags[1])
	}
	return diags[0]
}

func TestWatchdogDiagnosesUnreliableLoss(t *testing.T) {
	// Reliability off + drops on: the workload strands, and instead of
	// hanging (the spinning send path never drains the event queue) Run
	// panics with a diagnostic naming the stuck endpoints.
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	cfg.Nodes = 2
	cfg.Faults = faults.Config{Seed: 1, Drop: 0.3}
	cfg.StallHorizon = 100 * sim.Microsecond
	diag := watchdogDiag(t, cfg, 30)
	const first = "machine: no network progress for 100.000us with 0/2 nodes finished at 200.000us"
	if got, _, _ := strings.Cut(diag, "\n"); got != first {
		t.Fatalf("diagnostic first line = %q, want %q", got, first)
	}
	if !strings.Contains(diag, "netsim: network not quiescent") {
		t.Fatalf("diagnostic missing the quiescence report:\n%s", diag)
	}
	if !strings.Contains(diag, "endpoint 0") {
		t.Fatalf("diagnostic does not name the stuck endpoint:\n%s", diag)
	}
}

func TestWatchdogDiagnosesStarvation(t *testing.T) {
	// Every data injection force-bounces, forever, with the reliability
	// layer retrying open-endedly (no deadline): the network churns —
	// activity keeps rising — but nothing is ever delivered. That is
	// sustained-overload starvation, not livelock, and the watchdog must
	// terminate the run with the starvation diagnostic naming the starved
	// endpoints instead of the generic stall report (or a silent hang).
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	cfg.Nodes = 2
	cfg.Net.Reliability = netsim.DefaultReliability()
	cfg.Faults = faults.Config{Seed: 1, ForceBounce: 1.0}
	cfg.StallHorizon = 20 * sim.Microsecond
	diag := watchdogDiag(t, cfg, 10)
	// Eight 20us horizons of churn, sampled on the tick at 180us.
	const first = "machine: sustained overload starvation — network churning for 160.000us without a delivery, 0/2 nodes finished at 180.000us"
	if got, _, _ := strings.Cut(diag, "\n"); got != first {
		t.Fatalf("diagnostic first line = %q, want %q", got, first)
	}
	if !strings.Contains(diag, "endpoint 0") {
		t.Fatalf("diagnostic does not name the starved endpoint:\n%s", diag)
	}
}

func TestDuplicationSuppressedEndToEnd(t *testing.T) {
	// Heavy duplication + ack loss: every application message must be
	// dispatched exactly once (the msglayer suppresses both in-assembly
	// duplicates and late duplicates of completed messages).
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	cfg.Nodes = 2
	cfg.Net.Reliability = netsim.DefaultReliability()
	cfg.Faults = faults.Config{Seed: 4, Duplicate: 0.5, CtlDrop: 0.3}
	st, received := faultWorkload(t, machine.New(cfg), 40)
	if received != 40 {
		t.Fatalf("handler ran %d times, want exactly 40", received)
	}
	tot := st.Total()
	if tot.FaultDuplicates == 0 {
		t.Fatal("workload injected no duplicates; test proves nothing")
	}
	if tot.DupSuppressed == 0 {
		t.Fatal("no duplicates suppressed despite duplication faults")
	}
}

func TestOutageRecovery(t *testing.T) {
	// A full link outage at the sender early in the run: the reliability
	// layer must retransmit across the window and deliver everything.
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	cfg.Nodes = 2
	cfg.Net.Reliability = netsim.DefaultReliability()
	cfg.Faults = faults.Config{
		Seed:    2,
		Outages: []faults.Outage{{Endpoint: 0, Start: 10 * sim.Microsecond, End: 60 * sim.Microsecond}},
	}
	st, received := faultWorkload(t, machine.New(cfg), 30)
	if received != 30 {
		t.Fatalf("delivered %d of 30 across the outage", received)
	}
	tot := st.Total()
	if tot.FaultDrops == 0 || tot.Retransmits == 0 {
		t.Fatalf("outage had no effect: drops=%d retransmits=%d", tot.FaultDrops, tot.Retransmits)
	}
	if tot.DeliveryFailures != 0 {
		t.Fatalf("outage within the retransmission budget caused %d failures", tot.DeliveryFailures)
	}
}
