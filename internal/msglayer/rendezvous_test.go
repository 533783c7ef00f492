package msglayer_test

import (
	"bytes"
	"testing"

	"nisim/internal/faults"
	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/sim"
)

// rdvMachine builds a two-node machine on the canonical one-sided design
// point (RDMA send engine over a memory-homed ring) running the rendezvous
// protocol with the given threshold.
func rdvMachine(threshold int, mutate func(*machine.Config)) *machine.Machine {
	cfg := machine.DefaultConfig(nic.Custom, 8)
	cfg.Nodes = 2
	spec := nic.Spec{Send: nic.RDMAEngine, Recv: nic.CoherentEngine, Buffering: nic.MemoryRing}
	cfg.NISpec = &spec
	cfg.Msg.Protocol = msglayer.Rendezvous
	cfg.Msg.RendezvousThreshold = threshold
	if mutate != nil {
		mutate(&cfg)
	}
	return machine.New(cfg)
}

func TestRendezvousDelivery(t *testing.T) {
	// Payload sizes straddling the put frame boundary (248 bytes) must all
	// arrive intact through the RTS/CTS handshake and one-sided transfer.
	for _, size := range []int{1024, 1240, 1241, 4096} {
		m := rdvMachine(1024, nil)
		const h = 1
		var gotLen, gotBytes int
		var gotArg uint64
		var payloadOK bool
		for _, n := range m.Nodes {
			n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
				// The handler borrows msg and its payload: copy out
				// everything checked.
				gotLen = msg.PayloadLen
				gotBytes = len(msg.Payload)
				gotArg = msg.Arg
				payloadOK = true
				for _, b := range msg.Payload {
					if b != byte(size) {
						payloadOK = false
						break
					}
				}
			})
		}
		if got := m.Nodes[0].EP.Protocol(); got != msglayer.Rendezvous {
			t.Fatalf("protocol = %v, want rendezvous", got)
		}
		m.Run(func(n *machine.Node) {
			if n.ID == 0 {
				n.EP.SendBytes(1, h, bytes.Repeat([]byte{byte(size)}, size), 99)
			} else {
				n.EP.WaitUntil(func() bool { return gotLen != 0 })
			}
			n.Barrier()
		})
		if gotLen != size {
			t.Fatalf("size %d: got %d payload bytes", size, gotLen)
		}
		if gotBytes != gotLen {
			t.Fatalf("size %d: handler saw %d payload bytes, want PayloadLen %d", size, gotBytes, gotLen)
		}
		if gotArg != 99 {
			t.Fatalf("size %d: arg = %d, want 99", size, gotArg)
		}
		if !payloadOK {
			t.Fatalf("size %d: payload corrupted", size)
		}
	}
}

func TestRendezvousThresholdSwitch(t *testing.T) {
	// Below the threshold the eager path runs unchanged; at or above it the
	// handshake takes over. The fragment accounting tells them apart:
	// a 500-byte eager message is 3 fragments; a 2000-byte rendezvous
	// transfer is 1 RTS + 1 CTS + 9 one-sided frames = 11; the closing
	// barrier adds 2 single-fragment messages.
	m := rdvMachine(1000, nil)
	const h = 1
	delivered := 0
	for _, n := range m.Nodes {
		n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) { delivered++ })
	}
	st := m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			n.EP.Send(1, h, 500, 0)
			n.EP.Send(1, h, 2000, 0)
		} else {
			n.EP.WaitUntil(func() bool { return delivered == 2 })
		}
		n.Barrier()
	})
	tot := st.Total()
	if tot.MessagesSent != 4 {
		t.Fatalf("messages sent = %d, want 4 (2 data + 2 barrier)", tot.MessagesSent)
	}
	if tot.FragmentsSent != 16 {
		t.Fatalf("fragments sent = %d, want 16 (3 eager + 11 rendezvous + 2 barrier)", tot.FragmentsSent)
	}
	if tot.MessagesReceived != 4 {
		t.Fatalf("messages received = %d, want 4", tot.MessagesReceived)
	}
}

func TestRendezvousFallsBackToEager(t *testing.T) {
	// Rendezvous on an NI without an RDMA engine degrades to pure eager
	// transfer, so protocol sweeps can cover the whole design grid.
	cfg := machine.DefaultConfig(nic.CNI32Qm, 8)
	cfg.Nodes = 2
	cfg.Msg.Protocol = msglayer.Rendezvous
	m := machine.New(cfg)
	const h = 1
	got := 0
	for _, n := range m.Nodes {
		n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) { got = msg.PayloadLen })
	}
	if p := m.Nodes[0].EP.Protocol(); p != msglayer.Eager {
		t.Fatalf("protocol = %v, want eager fallback", p)
	}
	m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			n.EP.Send(1, h, 2000, 0)
		} else {
			n.EP.WaitUntil(func() bool { return got != 0 })
		}
		n.Barrier()
	})
	if got != 2000 {
		t.Fatalf("payload = %d, want 2000", got)
	}
}

func TestRendezvousBypassesAdmissionControl(t *testing.T) {
	// An admission policy refusing essentially everything (watermark at 1%
	// of the ring) cannot touch a rendezvous transfer: the RTS/CTS ride the
	// control-handler exemption and the payload frames never consult Admit
	// at all. The transfer completes without a single drop.
	m := rdvMachine(1024, func(cfg *machine.Config) {
		cfg.NISpec.Overload = nic.OverloadPolicy{
			AdmitPct:    1,
			Refuse:      nic.RefuseDrop,
			ControlBase: msglayer.ReservedHandlerBase,
		}
	})
	const h = 1
	got := 0
	for _, n := range m.Nodes {
		n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) { got = msg.PayloadLen })
	}
	st := m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			n.EP.Send(1, h, 8192, 0)
		} else {
			n.EP.WaitUntil(func() bool { return got != 0 })
		}
		n.Barrier()
	})
	if got != 8192 {
		t.Fatalf("payload = %d, want 8192", got)
	}
	if drops := st.Total().AdmitDrops; drops != 0 {
		t.Fatalf("admission dropped %d one-sided-era frames, want 0", drops)
	}
}

func TestRendezvousUnderFaults(t *testing.T) {
	// Corruption and duplication with reliability enabled: retransmission
	// recovers every dropped frame (RTS, CTS, and one-sided payload alike)
	// and duplicate suppression keeps each message delivered exactly once,
	// with intact bytes.
	m := rdvMachine(512, func(cfg *machine.Config) {
		cfg.Net.Reliability = netsim.ReliabilityConfig{
			Enabled: true, AckTimeout: 2 * sim.Microsecond,
			TimeoutCap: 16 * sim.Microsecond, MaxAttempts: 8,
		}
		cfg.Faults = faults.Config{Seed: 42, Corrupt: 0.05, Duplicate: 0.05}
	})
	const h, count = 1, 25
	delivered, corrupted := 0, 0
	for _, n := range m.Nodes {
		n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			delivered++
			for _, b := range msg.Payload {
				if b != 0x5A {
					corrupted++
					break
				}
			}
		})
	}
	payload := bytes.Repeat([]byte{0x5A}, 2000)
	m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			for i := 0; i < count; i++ {
				n.EP.SendBytes(1, h, payload, 0)
			}
		} else {
			n.EP.WaitUntil(func() bool { return delivered >= count })
		}
		n.Barrier()
	})
	if delivered != count {
		t.Fatalf("delivered %d messages, want exactly %d", delivered, count)
	}
	if corrupted != 0 {
		t.Fatalf("%d messages arrived corrupted", corrupted)
	}
}

// TestRendezvousDuplicatesUnreliable duplicates frames on a network without
// the reliability layer. The receiver frees each unsealed frame on its
// first arrival and may reuse it for its own next send before the
// duplicate lands, so the duplicate must arrive on its own frame: sharing
// one frame once sent the reused frame back to its new sender ("message to
// self") or delivered it with rewritten fields.
func TestRendezvousDuplicatesUnreliable(t *testing.T) {
	m := rdvMachine(512, func(cfg *machine.Config) {
		cfg.Faults = faults.Config{Seed: 42, Duplicate: 0.05}
	})
	const h, count = 1, 25
	delivered, corrupted := 0, 0
	for _, n := range m.Nodes {
		n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			delivered++
			if len(msg.Payload) != 2000 || !bytes.Equal(msg.Payload, bytes.Repeat([]byte{0x5A}, 2000)) {
				corrupted++
			}
		})
	}
	payload := bytes.Repeat([]byte{0x5A}, 2000)
	st := m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			for i := 0; i < count; i++ {
				n.EP.SendBytes(1, h, payload, 0)
			}
		} else {
			n.EP.WaitUntil(func() bool { return delivered >= count })
		}
		n.Barrier()
	})
	if delivered != count {
		t.Fatalf("delivered %d messages, want exactly %d", delivered, count)
	}
	if corrupted != 0 {
		t.Fatalf("%d messages arrived with wrong bytes", corrupted)
	}
	if dups := st.Total().FaultDuplicates; dups == 0 {
		t.Fatal("no frame was duplicated")
	}
}

func TestRendezvousHandlersMaySend(t *testing.T) {
	// A rendezvous handler that replies with another rendezvous transfer
	// exercises handshake reentrancy inside dispatch context.
	m := rdvMachine(512, nil)
	const hReq, hRep = 1, 2
	replies := 0
	for _, n := range m.Nodes {
		n.EP.Register(hReq, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			ep.Send(msg.Src, hRep, 1500, msg.Arg+1)
		})
		n.EP.Register(hRep, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			replies++
		})
	}
	m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			for i := 0; i < 5; i++ {
				n.EP.Send(1, hReq, 1500, uint64(i))
			}
			n.EP.WaitUntil(func() bool { return replies == 5 })
		}
		n.Barrier()
	})
	if replies != 5 {
		t.Fatalf("replies = %d, want 5", replies)
	}
}
