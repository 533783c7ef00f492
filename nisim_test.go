package nisim

import (
	"bytes"
	"testing"
)

func TestRunAppAllKinds(t *testing.T) {
	for _, ni := range NIKinds() {
		ni := ni
		t.Run(string(ni), func(t *testing.T) {
			res, err := RunAppScaled(Config{NI: ni}, "dsmc", 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if res.ExecMicros <= 0 {
				t.Fatal("no simulated time")
			}
			if res.Counters.MessagesSent != res.Counters.MessagesReceived {
				t.Fatalf("conservation: %d sent, %d received",
					res.Counters.MessagesSent, res.Counters.MessagesReceived)
			}
			sum := res.Breakdown.Compute + res.Breakdown.Transfer + res.Breakdown.Buffering
			if sum < 0.999 || sum > 1.001 {
				t.Fatalf("breakdown does not sum to 1: %+v", res.Breakdown)
			}
		})
	}
}

func TestRunAppUnknown(t *testing.T) {
	if _, err := RunApp(Config{}, "quake"); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := RunApp(Config{NI: "abacus"}, "em3d"); err == nil {
		t.Fatal("unknown NI accepted")
	}
	if _, err := RunApp(Config{Nodes: 1}, "em3d"); err == nil {
		t.Fatal("single-node machine accepted")
	}
	if _, err := RunApp(Config{FlowBuffers: -7}, "em3d"); err == nil {
		t.Fatal("negative buffer count accepted")
	}
}

func TestRunCustomProgram(t *testing.T) {
	const h = 1
	payload := []byte("the quick brown fox")
	var got []byte
	res, err := Run(Config{Nodes: 2, NI: CNI32Qm}, func(n *Node) {
		n.Register(h, func(n *Node, m Message) {
			got = append([]byte(nil), m.Payload...)
		})
		if n.ID() == 0 {
			n.SendBytes(1, h, payload, 42)
		} else {
			n.WaitUntil(func() bool { return got != nil })
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: %q", got)
	}
	if res.Counters.MessagesSent == 0 {
		t.Fatal("no messages counted")
	}
}

// TestHandlerKeepsPayload holds the Payload of two successive SendBytes
// messages past their handlers and finds both intact: a Message owns its
// bytes, though the messaging layer reuses its reassembly buffers.
func TestHandlerKeepsPayload(t *testing.T) {
	const h = 1
	sent := [][]byte{[]byte("first message"), []byte("second one")}
	var kept [][]byte
	_, err := Run(Config{Nodes: 2, NI: CNI32Qm}, func(n *Node) {
		n.Register(h, func(n *Node, m Message) { kept = append(kept, m.Payload) })
		if n.ID() == 0 {
			for _, p := range sent {
				n.SendBytes(1, h, p, 0)
			}
		} else {
			n.WaitUntil(func() bool { return len(kept) == len(sent) })
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sent {
		if !bytes.Equal(kept[i], p) {
			t.Fatalf("message %d payload = %q, want %q", i, kept[i], p)
		}
	}
}

func TestMicrobenchHelpers(t *testing.T) {
	rtt, err := RoundTripMicros(CNI32Qm, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 0.5 || rtt > 10 {
		t.Fatalf("implausible round trip %.2fus", rtt)
	}
	bw, err := BandwidthMBps(AP3000, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if bw < 20 || bw > 2000 {
		t.Fatalf("implausible bandwidth %.0f MB/s", bw)
	}
	if _, err := RoundTripMicros("bogus", 8, 8); err == nil {
		t.Fatal("unknown NI accepted")
	}
}

func TestTopMessageSizes(t *testing.T) {
	res, err := RunAppScaled(Config{}, "em3d", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopMessageSizes(1)
	if len(top) != 1 || top[0] != 20 {
		t.Fatalf("em3d dominant size = %v, want [20]", top)
	}
}

func TestDefaultsApplied(t *testing.T) {
	mc, err := Config{}.build()
	if err != nil {
		t.Fatal(err)
	}
	if mc.Nodes != 16 {
		t.Fatalf("default nodes = %d, want 16", mc.Nodes)
	}
	if mc.FlowBuffers != 8 {
		t.Fatalf("default buffers = %d, want 8", mc.FlowBuffers)
	}
	inf, err := Config{FlowBuffers: InfiniteBuffers}.build()
	if err != nil {
		t.Fatal(err)
	}
	if inf.FlowBuffers < 1<<30 {
		t.Fatalf("InfiniteBuffers not mapped: %d", inf.FlowBuffers)
	}
}

func TestPaperNIsAreSeven(t *testing.T) {
	if got := len(PaperNIs()); got != 7 {
		t.Fatalf("PaperNIs() returned %d kinds, want 7", got)
	}
}

func TestSharedMemoryPublicAPI(t *testing.T) {
	shm := NewSharedMemory(ShmemConfig{})
	var got []byte
	var state string
	_, err := Run(Config{Nodes: 4, NI: CNI32Qm}, func(n *Node) {
		sn := shm.Attach(n)
		n.Barrier()
		if n.ID() == 1 {
			sn.WriteBytes(2*64, []byte("shared payload"))
		}
		n.Barrier()
		if n.ID() == 3 {
			got = sn.ReadBytes(2 * 64)
			state = sn.State(2 * 64)
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared payload" {
		t.Fatalf("read %q", got)
	}
	if state != "S" {
		t.Fatalf("state %q, want S", state)
	}
	if shm.HomeOf(2*64) != 2 {
		t.Fatalf("HomeOf = %d, want 2", shm.HomeOf(2*64))
	}
}
