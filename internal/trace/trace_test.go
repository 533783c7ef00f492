package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/nic"
	"nisim/internal/sim"
	"nisim/internal/stats"
	"nisim/internal/trace"
)

func TestBusTracing(t *testing.T) {
	var buf bytes.Buffer
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	cfg.Nodes = 2
	cfg.Tracer = trace.New(&buf, trace.Bus)
	m := machine.New(cfg)
	const h = 1
	got := false
	for _, n := range m.Nodes {
		n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) { got = true })
	}
	m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			n.EP.Send(1, h, 64, 0)
		} else {
			n.EP.WaitUntil(func() bool { return got })
		}
		n.Barrier()
	})
	out := buf.String()
	if out == "" {
		t.Fatal("no trace lines written")
	}
	if !strings.Contains(out, "GetS") && !strings.Contains(out, "GetX") {
		t.Fatalf("no coherent transactions in trace:\n%s", out[:min(400, len(out))])
	}
	if !strings.Contains(out, "bus") {
		t.Fatal("category tag missing")
	}
}

// TestTraceText pins the complete bus and NIC trace of a short streaming
// run on each coherent named NI, and on the three fifo NIs that move data
// over the bus, to a SHA-256 of its text. The run sends a burst of 40
// four-block messages at a receiver that sleeps before it drains, so the
// traces cover every ring deposit mode (memory, NI DRAM, NI cache and
// bypass), dead-block reclaim, send prefetch, the throttle's credit
// returns, the fifo window's word and block-buffer trains and UDMA's
// block chain. A traced bus runs every access train step by step, so the
// fifo hashes pin the stepwise path. Any change to a simulated time, a bus
// transaction, or a trace line's text changes a hash.
func TestTraceText(t *testing.T) {
	want := map[nic.Kind]string{
		nic.StarTJR:         "a36155de53b76db1a27559af297bb130c969ab3542bd33e985ed2b5c78f3b87e",
		nic.MemoryChannel:   "ebd0a5d1f78a17199a664b584c64b53ef2c1313c79528898239d32ff1cc2a0db",
		nic.CNI512Q:         "30b2b2738e5dfaaad78d10a85569cb3b51299548dc7d5967d2670099d2fdeb07",
		nic.CNI32Qm:         "79e9b726876c9923ce2716e70eda771fa138e9fe44c3a34486e9904045b35c7a",
		nic.CNI32QmThrottle: "cc9532685a6f694eb347e50de2cfc72574be38ba9a526f175fef087c9cc8f0f0",
		nic.CM5:             "1b99c4a93a3cbb5d4da832d5b15cd7d28f633a99397adee904612dc54d6e7686",
		nic.AP3000:          "0bdf5d97b498bee47424feb7f995910ef1f3e8b826a399a22be2c364a347e2c3",
		nic.UDMA:            "d6ce3c5217183f0527d6477e7b635ec50c40867a4847098fb487d3dfb4df37a2",
	}
	for _, k := range []nic.Kind{nic.StarTJR, nic.MemoryChannel, nic.CNI512Q, nic.CNI32Qm, nic.CNI32QmThrottle, nic.CM5, nic.AP3000, nic.UDMA} {
		k := k
		t.Run(k.ShortName(), func(t *testing.T) {
			text := streamTrace(k)
			sum := sha256.Sum256(text)
			if got := hex.EncodeToString(sum[:]); got != want[k] {
				t.Errorf("trace of %d lines hashes to %s, want %s", bytes.Count(text, []byte("\n")), got, want[k])
			}
		})
	}
}

// streamTrace runs the TestTraceText scenario on kind k and returns the
// trace text.
func streamTrace(k nic.Kind) []byte {
	const (
		h     = 1
		count = 40
		size  = 200
	)
	var buf bytes.Buffer
	cfg := machine.DefaultConfig(k, 8)
	cfg.Nodes = 2
	cfg.Tracer = trace.New(&buf)
	m := machine.New(cfg)
	got := [2]int{}
	for _, n := range m.Nodes {
		n := n
		n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) { got[n.ID]++ })
	}
	m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			for i := 0; i < count; i++ {
				n.EP.Send(1, h, size, uint64(i))
			}
			n.EP.WaitUntil(func() bool { return got[0] == 1 })
		} else {
			n.Proc.P.SleepAs(stats.Compute, 20*sim.Microsecond)
			n.EP.WaitUntil(func() bool { return got[1] == count })
			n.EP.Send(0, h, size, 0)
		}
		n.Barrier()
	})
	return buf.Bytes()
}

// TestEvictionTraceText pins the complete bus and NIC trace of an
// overloaded run on each coherent named NI, to a SHA-256 of its text. The
// receive ring is cut to 64 blocks and the NI evicts the oldest buffered
// message once a quarter of it is live, so a burst of 40 four-block
// messages at a sleeping receiver evicts: the traces cover the eviction
// path through the ring's retire step, its credit return on the throttled
// NI, and the deposits and consumes around it.
func TestEvictionTraceText(t *testing.T) {
	want := map[nic.Kind]string{
		nic.StarTJR:         "d60042beb274bbe8b6ca6e62fd11c81ea9e3a0fb09150f11a19e1d1b7ba6ed68",
		nic.MemoryChannel:   "67f2b7383fa96e8bb22163428f60d75ff283447462d5f592d03528b7e89d5466",
		nic.CNI512Q:         "2b9c7743c906b2fc383c5ee22bb2b95a5e0a748a1bffa69a74d1f816ffa461ff",
		nic.CNI32Qm:         "d458df58766647dd5152a78bf7406b7d45799f89c04648caf6d6fd5450e68225",
		nic.CNI32QmThrottle: "0654b8918b926a49242502806a443ab32fb6270a5bdffda0664a9b4aa2f747ab",
	}
	for _, k := range []nic.Kind{nic.StarTJR, nic.MemoryChannel, nic.CNI512Q, nic.CNI32Qm, nic.CNI32QmThrottle} {
		k := k
		t.Run(k.ShortName(), func(t *testing.T) {
			text, evicted := evictTrace(k)
			if evicted == 0 {
				t.Fatal("no message was evicted")
			}
			sum := sha256.Sum256(text)
			if got := hex.EncodeToString(sum[:]); got != want[k] {
				t.Errorf("trace of %d lines (%d evictions) hashes to %s, want %s", bytes.Count(text, []byte("\n")), evicted, got, want[k])
			}
		})
	}
}

// evictTrace runs the TestEvictionTraceText scenario on kind k and returns
// the trace text and the receiver's eviction count.
func evictTrace(k nic.Kind) ([]byte, int64) {
	const (
		h     = 1
		count = 40
		size  = 200
	)
	var buf bytes.Buffer
	spec := nic.SpecFor(k)
	spec.Overload = nic.OverloadPolicy{AdmitPct: 25, Refuse: nic.RefuseDrop, Evict: nic.EvictOldest}
	cfg := machine.DefaultConfig(k, 8)
	cfg.Nodes = 2
	cfg.NISpec = &spec
	cfg.NI.QmQueueBlocks = 64
	cfg.NI.CNIQueueBlocks = 64
	cfg.Tracer = trace.New(&buf)
	m := machine.New(cfg)
	got := 0
	m.Nodes[1].EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) { got++ })
	m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			for i := 0; i < count; i++ {
				n.EP.Send(1, h, size, uint64(i))
			}
		} else {
			st := n.Proc.Stats
			n.Proc.P.SleepAs(stats.Compute, 5*sim.Microsecond)
			n.EP.WaitUntil(func() bool { return int64(got)+st.AdmitEvictions+st.AdmitDrops == count })
		}
		n.Barrier()
	})
	return buf.Bytes(), m.Stats.Nodes[1].AdmitEvictions
}

func TestCategoryFiltering(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.NIC)
	if tr.Enabled(trace.Bus) {
		t.Fatal("bus enabled despite nic-only filter")
	}
	tr.Event(10*sim.Nanosecond, trace.Bus, 0, "hidden")
	if buf.Len() != 0 {
		t.Fatal("filtered event written")
	}
	tr.Event(10*sim.Nanosecond, trace.NIC, 1, "shown %d", 7)
	if !strings.Contains(buf.String(), "shown 7") {
		t.Fatalf("event missing: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "node1") {
		t.Fatalf("node tag missing: %q", buf.String())
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *trace.Tracer
	if tr.Enabled(trace.Bus) {
		t.Fatal("nil tracer enabled")
	}
	tr.Event(10*sim.Nanosecond, trace.Bus, 0, "dropped")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
