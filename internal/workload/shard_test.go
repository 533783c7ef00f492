package workload

import (
	"reflect"
	"testing"

	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/nic"
)

// TestShardedRunIsByteIdentical is the workload-level half of the
// partition determinism gate: for every NI kind, the shared-memory
// applications must produce a stats.Machine deeply equal to the serial
// engine's at every shard count — same counters, same times, same
// histograms, nothing averaged or approximated. The throttled CNI is
// included deliberately: its credit returns cross shards as lagged
// control messages, the one NI-level cross-node coupling in the system.
// Under `make ci` this also runs with the race detector watching the shard
// workers.
func TestShardedRunIsByteIdentical(t *testing.T) {
	kinds := []nic.Kind{
		nic.CM5, nic.CM5SingleCycle, nic.UDMA, nic.AP3000, nic.StarTJR,
		nic.MemoryChannel, nic.CNI512Q, nic.CNI32Qm, nic.CNI32QmThrottle,
	}
	p := Params{Iters: 0.3}
	for _, kind := range kinds {
		for _, app := range []App{Appbt, Barnes} {
			cfg := machine.DefaultConfig(kind, 8)
			serial := Run(cfg, app, p)
			for _, shards := range []int{2, 4} {
				c := cfg
				c.Shards = shards
				if got := Run(c, app, p); !reflect.DeepEqual(serial, got) {
					t.Errorf("%s/%s shards=%d: stats differ from serial", kind.ShortName(), app, shards)
				}
			}
		}
	}
}

// TestEverythingShardable pins the property that retired the old serial
// fallback: every macrobenchmark confines its cross-node state to
// messages and per-node tables, so the formerly serial-only kernels —
// message-counting quiescence apps and the throttled CNI's credit
// coupling — run partitioned byte-identically to serial. The grid here
// crosses the five formerly-unshardable apps with a plain kind and the
// throttle spec that used to force the fallback.
func TestEverythingShardable(t *testing.T) {
	p := Params{Iters: 0.2}
	for _, kind := range []nic.Kind{nic.CM5, nic.CNI32QmThrottle} {
		for _, app := range []App{Dsmc, Em3d, Moldyn, Spsolve, Unstructured} {
			cfg := machine.DefaultConfig(kind, 8)
			serial := Run(cfg, app, p)
			c := cfg
			c.Shards = 4
			if got := Run(c, app, p); !reflect.DeepEqual(serial, got) {
				t.Errorf("%s/%s shards=4: stats differ from serial", kind.ShortName(), app)
			}
		}
	}
}

// TestShardedRendezvousIsByteIdentical covers the rendezvous protocol
// under partitioning: the RTS/CTS handshake and the one-sided put frames
// cross shard boundaries as ordinary network events, so the open-loop
// workload on the RDMA design with bulk rendezvous requests must produce
// service results and machine statistics deeply equal to the serial
// engine's at every shard count.
func TestShardedRendezvousIsByteIdentical(t *testing.T) {
	spec := nic.Spec{Send: nic.RDMAEngine, Recv: nic.CoherentEngine, Buffering: nic.MemoryRing}
	cfg := machine.DefaultConfig(nic.Custom, 8)
	cfg.NISpec = &spec
	cfg.Msg.Protocol = msglayer.Rendezvous
	cfg.Msg.RendezvousThreshold = 1024
	p := smallRPC
	p.ReqBytes, p.RespBytes = 2048, 32

	serialRes, serialStats := RunOpenLoop(cfg, p)
	if serialRes.Completed == 0 {
		t.Fatal("serial rendezvous run completed nothing")
	}
	for _, shards := range []int{2, 4} {
		c := cfg
		c.Shards = shards
		res, st := RunOpenLoop(c, p)
		if !reflect.DeepEqual(serialStats, st) {
			t.Errorf("shards=%d: rendezvous stats differ from serial", shards)
		}
		if !reflect.DeepEqual(serialRes, res) {
			t.Errorf("shards=%d: rendezvous result differs from serial:\nserial: %+v\nsharded: %+v",
				shards, serialRes, res)
		}
	}
}

// TestShardedOpenLoopIsByteIdentical covers the open-loop overload
// workload: both the service-level result (latency quantiles, goodput,
// recovery) and the machine statistics must be deeply equal to the serial
// run's when the simulation is partitioned.
func TestShardedOpenLoopIsByteIdentical(t *testing.T) {
	for _, kind := range []nic.Kind{nic.UDMA, nic.CNI32Qm, nic.CNI32QmThrottle} {
		cfg := machine.DefaultConfig(kind, 8)
		p := smallRPC
		serialRes, serialStats := RunOpenLoop(cfg, p)
		for _, shards := range []int{2, 4} {
			c := cfg
			c.Shards = shards
			res, st := RunOpenLoop(c, p)
			if !reflect.DeepEqual(serialStats, st) {
				t.Errorf("%s shards=%d: open-loop stats differ from serial", kind.ShortName(), shards)
			}
			if !reflect.DeepEqual(serialRes, res) {
				t.Errorf("%s shards=%d: open-loop result differs from serial:\nserial: %+v\nsharded: %+v",
					kind.ShortName(), shards, serialRes, res)
			}
		}
	}
}
