package msglayer_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"nisim/internal/machine"
	"nisim/internal/msglayer"
	"nisim/internal/nic"
)

func twoNodeMachine(kind nic.Kind, bufs int) *machine.Machine {
	cfg := machine.DefaultConfig(kind, bufs)
	cfg.Nodes = 2
	return machine.New(cfg)
}

func TestFragmentationBoundary(t *testing.T) {
	// Payload sizes straddling fragment boundaries must all arrive intact.
	// Fragments carry 248 payload bytes (256 minus the 8-byte header).
	for _, size := range []int{0, 1, 247, 248, 249, 496, 497, 1000, 4096} {
		size := size
		m := twoNodeMachine(nic.CNI32Qm, 8)
		const h = 1
		var got *msglayer.Message
		for _, n := range m.Nodes {
			// The handler borrows msg, so it keeps a copy.
			n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
				c := *msg
				c.Payload = append([]byte(nil), msg.Payload...)
				got = &c
			})
		}
		m.Run(func(n *machine.Node) {
			if n.ID == 0 {
				payload := bytes.Repeat([]byte{byte(size)}, size)
				n.EP.SendBytes(1, h, payload, 7)
			} else if n.ID == 1 {
				n.EP.WaitUntil(func() bool { return got != nil })
			}
			n.Barrier()
		})
		if got == nil {
			t.Fatalf("size %d: message never arrived", size)
		}
		if got.PayloadLen != size {
			t.Fatalf("size %d: got %d payload bytes", size, got.PayloadLen)
		}
		if got.Arg != 7 {
			t.Fatalf("size %d: arg = %d, want 7", size, got.Arg)
		}
		for _, b := range got.Payload {
			if b != byte(size) {
				t.Fatalf("size %d: payload corrupted", size)
			}
		}
	}
}

func TestFragmentCountMatchesSize(t *testing.T) {
	m := twoNodeMachine(nic.CNI32Qm, 8)
	const h = 1
	done := false
	for _, n := range m.Nodes {
		n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) { done = true })
	}
	st := m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			n.EP.Send(1, h, 1000, 0) // ceil(1000/248) = 5 fragments
		} else {
			n.EP.WaitUntil(func() bool { return done })
		}
		n.Barrier()
	})
	tot := st.Total()
	// 5 data fragments + barrier traffic (1 app message data + 2 barrier msgs).
	if tot.MessagesSent != 3 {
		t.Fatalf("messages sent = %d, want 3 (1 data + 2 barrier)", tot.MessagesSent)
	}
	dataFrags := tot.FragmentsSent - 2 // barrier messages are single fragments
	if dataFrags != 5 {
		t.Fatalf("data fragments = %d, want 5", dataFrags)
	}
}

func TestHandlersMaySend(t *testing.T) {
	// A handler that replies exercises nested sends in dispatch context.
	m := twoNodeMachine(nic.AP3000, 4)
	const hReq, hRep = 1, 2
	replies := 0
	for _, n := range m.Nodes {
		n.EP.Register(hReq, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			ep.Send(msg.Src, hRep, 16, msg.Arg+1)
		})
		n.EP.Register(hRep, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			replies++
		})
	}
	m.Run(func(n *machine.Node) {
		if n.ID == 0 {
			for i := 0; i < 10; i++ {
				n.EP.Send(1, hReq, 24, uint64(i))
			}
			n.EP.WaitUntil(func() bool { return replies == 10 })
		}
		n.Barrier()
	})
	if replies != 10 {
		t.Fatalf("replies = %d, want 10", replies)
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	m := twoNodeMachine(nic.CNI32Qm, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("double registration did not panic")
		}
	}()
	m.Nodes[0].EP.Register(1, func(ep *msglayer.Endpoint, msg *msglayer.Message) {})
	m.Nodes[0].EP.Register(1, func(ep *msglayer.Endpoint, msg *msglayer.Message) {})
}

// Property: any sequence of random-sized messages with random payload bytes
// arrives complete and uncorrupted, across a mix of NIs and buffer counts.
func TestPayloadIntegrityProperty(t *testing.T) {
	f := func(sizesRaw []uint16, kindRaw, bufsRaw uint8) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 8 {
			sizesRaw = sizesRaw[:8]
		}
		kinds := []nic.Kind{nic.CM5, nic.AP3000, nic.StarTJR, nic.CNI32Qm}
		kind := kinds[int(kindRaw)%len(kinds)]
		bufs := int(bufsRaw)%8 + 1
		m := twoNodeMachine(kind, bufs)
		const h = 1
		var got [][]byte
		for _, n := range m.Nodes {
			n.EP.Register(h, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
				got = append(got, append([]byte(nil), msg.Payload...))
			})
		}
		var sent [][]byte
		for i, s := range sizesRaw {
			size := int(s) % 2000
			b := make([]byte, size)
			for j := range b {
				b[j] = byte(i*31 + j)
			}
			sent = append(sent, b)
		}
		m.Run(func(n *machine.Node) {
			if n.ID == 0 {
				for _, b := range sent {
					n.EP.SendBytes(1, h, b, 0)
				}
			} else {
				n.EP.WaitUntil(func() bool { return len(got) == len(sent) })
			}
			n.Barrier()
		})
		if len(got) != len(sent) {
			return false
		}
		// Order may differ after bounces; match as multisets.
		used := make([]bool, len(sent))
	outer:
		for _, g := range got {
			for i, s := range sent {
				if !used[i] && bytes.Equal(g, s) {
					used[i] = true
					continue outer
				}
			}
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
