package netsim

import (
	"testing"
	"testing/quick"
	"unsafe"

	"nisim/internal/sim"
	"nisim/internal/stats"
)

func newNet(n, bufs int) (*sim.Engine, *Network) {
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig(), n, bufs)
}

func TestPointToPointLatency(t *testing.T) {
	eng, nw := newNet(2, 4)
	var arrived sim.Time
	nw.Endpoint(1).OnAccept = func(m *Message) {
		arrived = eng.Now()
		nw.Endpoint(1).ReleaseIn()
	}
	m := NewSized(0, 1, 0, 8) // 16B on the wire
	if !nw.Endpoint(0).TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { nw.Endpoint(0).Inject(m) }, nil, 0)
	eng.Run()
	// 16ns injection + 40ns latency + 16ns ejection = 72ns.
	if arrived != 72*sim.Nanosecond {
		t.Fatalf("arrival at %v, want 72ns", arrived)
	}
	if m.ArriveTime != arrived {
		t.Fatalf("ArriveTime = %v, want %v", m.ArriveTime, arrived)
	}
}

func TestAckFreesSenderBuffer(t *testing.T) {
	eng, nw := newNet(2, 1)
	nw.Endpoint(1).OnAccept = func(m *Message) { nw.Endpoint(1).ReleaseIn() }
	ep := nw.Endpoint(0)
	if !ep.TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	if ep.TryAcquireOut() {
		t.Fatal("second acquire should fail with 1 buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { ep.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.Run()
	if ep.OutFree() != 1 {
		t.Fatalf("out buffer not freed by ack: OutFree=%d", ep.OutFree())
	}
}

func TestBounceAndRetry(t *testing.T) {
	eng, nw := newNet(2, 1)
	st := stats.NewNode()
	nw.Endpoint(0).Stats = st
	recv := nw.Endpoint(1)
	var accepted []sim.Time
	recv.OnAccept = func(m *Message) { accepted = append(accepted, eng.Now()) }
	// Fill the receiver's only in-buffer with a first message that is never
	// released until later.
	if !nw.Endpoint(0).TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { nw.Endpoint(0).Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.Run()
	if len(accepted) != 1 {
		t.Fatalf("first message not accepted")
	}
	// Second message must bounce (in-buffer still held), then retry and
	// succeed once we release.
	m2 := NewSized(0, 1, 0, 8)
	sent := false
	eng.AfterEvent(0, func(any, uint64) {
		if nw.Endpoint(0).TryAcquireOut() {
			t.Error("out buffer should still be held? (bufs=1, first acked)")
		}
		_ = sent
	}, nil, 0)
	// The first send was acked, so the out buffer is free again.
	if !nw.Endpoint(0).TryAcquireOut() {
		t.Fatal("out buffer should be free after ack")
	}
	eng.AfterEvent(0, func(any, uint64) { nw.Endpoint(0).Inject(m2) }, nil, 0)
	eng.AfterEvent(500*sim.Nanosecond, func(any, uint64) { recv.ReleaseIn() }, nil, 0)
	eng.Run()
	if st.Bounces < 1 {
		t.Fatalf("expected at least one bounce, got %d", st.Bounces)
	}
	if st.Retries < 1 {
		t.Fatalf("expected at least one retry, got %d", st.Retries)
	}
	if len(accepted) != 2 {
		t.Fatalf("second message never accepted: %v", accepted)
	}
}

// TestAcquireOutBlocksProcess: with one buffer in flight a second claim
// fails, and the credit the ack returns is announced through OnOutFree,
// where the claim succeeds.
func TestAcquireOutBlocksProcess(t *testing.T) {
	eng, nw := newNet(2, 1)
	ep := nw.Endpoint(0)
	nw.Endpoint(1).OnAccept = func(m *Message) { nw.Endpoint(1).ReleaseIn() }
	var acquiredAt sim.Time
	ep.OnOutFree = func() {
		if acquiredAt == 0 && ep.TryAcquireOut() {
			acquiredAt = eng.Now()
		}
	}
	eng.AfterEvent(0, func(any, uint64) {
		if !ep.TryAcquireOut() {
			t.Error("first claim failed with a free buffer")
		}
		ep.Inject(NewSized(0, 1, 0, 8))
		if ep.TryAcquireOut() {
			t.Error("second claim succeeded with the only buffer in flight")
		}
	}, nil, 0)
	eng.Run()
	if acquiredAt == 0 {
		t.Fatal("second claim never succeeded")
	}
	// Ack path: 16 inject + 40 + 16 eject + 40 ack = 112ns.
	if acquiredAt != 112*sim.Nanosecond {
		t.Fatalf("buffer freed at %v, want 112ns", acquiredAt)
	}
}

func TestInjectionSerialization(t *testing.T) {
	eng, nw := newNet(2, 8)
	var arrivals []sim.Time
	nw.Endpoint(1).OnAccept = func(m *Message) {
		arrivals = append(arrivals, eng.Now())
		nw.Endpoint(1).ReleaseIn()
	}
	ep := nw.Endpoint(0)
	eng.AfterEvent(0, func(any, uint64) {
		for i := 0; i < 3; i++ {
			if !ep.TryAcquireOut() {
				t.Fatal("out of buffers")
			}
			ep.Inject(NewSized(0, 1, 0, 248)) // 256B wire
		}
	}, nil, 0)
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d, want 3", len(arrivals))
	}
	// Messages serialize on the link: spacing 256ns.
	for i := 1; i < len(arrivals); i++ {
		if d := arrivals[i] - arrivals[i-1]; d != 256*sim.Nanosecond {
			t.Fatalf("arrival spacing %v, want 256ns", d)
		}
	}
}

func TestInfiniteBuffers(t *testing.T) {
	eng, nw := newNet(2, Infinite)
	count := 0
	nw.Endpoint(1).OnAccept = func(m *Message) { count++ } // never released
	ep := nw.Endpoint(0)
	eng.AfterEvent(0, func(any, uint64) {
		for i := 0; i < 1000; i++ {
			if !ep.TryAcquireOut() {
				t.Fatal("infinite buffers exhausted")
			}
			ep.Inject(NewSized(0, 1, 0, 8))
		}
	}, nil, 0)
	eng.Run()
	if count != 1000 {
		t.Fatalf("accepted %d, want 1000", count)
	}
}

func TestOnOutFreeCallback(t *testing.T) {
	eng, nw := newNet(2, 1)
	nw.Endpoint(1).OnAccept = func(m *Message) { nw.Endpoint(1).ReleaseIn() }
	ep := nw.Endpoint(0)
	freed := 0
	ep.OnOutFree = func() { freed++ }
	if !ep.TryAcquireOut() {
		t.Fatal("no buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { ep.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.Run()
	if freed != 1 {
		t.Fatalf("OnOutFree fired %d times, want 1", freed)
	}
}

func TestOversizeMessagePanics(t *testing.T) {
	eng, nw := newNet(2, 1)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("oversize inject did not panic")
		}
	}()
	ep := nw.Endpoint(0)
	ep.TryAcquireOut()
	ep.Inject(NewSized(0, 1, 0, 4000))
}

// Property: under random send patterns and random release delays, every
// injected message is accepted exactly once (conservation: no loss, no
// duplication), for any buffer count >= 1.
func TestFlowControlConservation(t *testing.T) {
	f := func(seeds []uint8, bufsRaw uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 60 {
			seeds = seeds[:60]
		}
		bufs := int(bufsRaw)%3 + 1
		eng := sim.NewEngine()
		nw := New(eng, DefaultConfig(), 3, bufs)
		accepted := map[*Message]int{}
		for i := 0; i < 3; i++ {
			ep := nw.Endpoint(i)
			ep.OnAccept = func(m *Message) {
				accepted[m]++
				// Random-ish hold time derived from message identity.
				hold := sim.Time(50+int(m.Arg%7)*100) * sim.Nanosecond
				eng.AfterEvent(hold, func(any, uint64) { ep.ReleaseIn() }, nil, 0)
			}
		}
		var msgs []*Message
		for i, s := range seeds {
			src := int(s) % 3
			dst := (src + 1 + int(s/3)%2) % 3
			m := NewSized(src, dst, 0, int(s%200))
			m.Arg = uint64(s)
			msgs = append(msgs, m)
			at := sim.Time(i*30) * sim.Nanosecond
			ep := nw.Endpoint(src)
			eng.AtEvent(at, func(any, uint64) {
				// Sender process: wait for a buffer via polling retry.
				var try func()
				try = func() {
					if ep.TryAcquireOut() {
						ep.Inject(m)
					} else {
						eng.AfterEvent(100*sim.Nanosecond, func(any, uint64) { try() }, nil, 0)
					}
				}
				try()
			}, nil, 0)
		}
		eng.Run()
		if len(accepted) != len(msgs) {
			return false
		}
		for _, m := range msgs {
			if accepted[m] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchBufferTable(t *testing.T) {
	tbl := SwitchBufferTable()
	if len(tbl) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(tbl))
	}
	if tbl[4].Name != "TMC CM-5 network router" {
		t.Fatalf("unexpected last row %q", tbl[4].Name)
	}
}

func TestAcquireOutBlocksUntilCredit(t *testing.T) {
	// One buffer, three sends: the second and third claim wait for
	// OnOutFree to announce the credit the receiver's release returns.
	eng, nw := newNet(2, 1)
	ep := nw.Endpoint(0)
	got, sent := 0, 0
	nw.Endpoint(1).OnAccept = func(m *Message) { got++; nw.Endpoint(1).ReleaseIn() }
	send := func() {
		for sent < 3 && ep.TryAcquireOut() {
			ep.Inject(NewSized(0, 1, 0, 8))
			sent++
		}
	}
	ep.OnOutFree = send
	eng.AfterEvent(0, func(any, uint64) { send() }, nil, 0)
	eng.Run()
	if got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, nw := newNet(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	nw.Endpoint(0).TryAcquireOut()
	nw.Endpoint(0).Inject(NewSized(0, 0, 0, 8))
}

func TestWrongSourcePanics(t *testing.T) {
	_, nw := newNet(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched source did not panic")
		}
	}()
	nw.Endpoint(0).TryAcquireOut()
	nw.Endpoint(0).Inject(NewSized(1, 0, 0, 8))
}

func TestReleaseInWithoutAcceptPanics(t *testing.T) {
	_, nw := newNet(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("unmatched ReleaseIn did not panic")
		}
	}()
	nw.Endpoint(0).ReleaseIn()
}

func TestOnBounceOverridesHardwareRetry(t *testing.T) {
	eng, nw := newNet(2, 1)
	st := stats.NewNode()
	nw.Endpoint(0).Stats = st
	var bounced []*Message
	nw.Endpoint(0).OnBounce = func(m *Message) { bounced = append(bounced, m) }
	accepted := 0
	nw.Endpoint(1).OnAccept = func(m *Message) { accepted++ } // never released
	eng.AfterEvent(0, func(any, uint64) {
		nw.Endpoint(0).TryAcquireOut()
		nw.Endpoint(0).Inject(NewSized(0, 1, 0, 8))
	}, nil, 0)
	// Fill the single in-buffer first so the second message bounces.
	eng.Run()
	if accepted != 1 {
		t.Fatal("setup failed")
	}
	m2 := NewSized(0, 1, 0, 8)
	// Out buffer still held by the first (unacked) send? The ack only comes
	// on accept; it was accepted, so a credit exists.
	if !nw.Endpoint(0).TryAcquireOut() {
		t.Fatal("no credit after ack")
	}
	eng.AfterEvent(0, func(any, uint64) { nw.Endpoint(0).Inject(m2) }, nil, 0)
	eng.Run()
	if len(bounced) != 1 || bounced[0] != m2 {
		t.Fatalf("OnBounce got %v", bounced)
	}
	if st.Retries != 0 {
		t.Fatal("hardware retry ran despite OnBounce")
	}
	if st.Bounces != 1 {
		t.Fatalf("bounces = %d, want 1", st.Bounces)
	}
}

func TestMessageString(t *testing.T) {
	m := NewSized(0, 1, 3, 40)
	if m.String() == "" || m.Size() != 48 {
		t.Fatalf("String/Size wrong: %q %d", m.String(), m.Size())
	}
	b := payloadMessage(0, 1, 2, []byte{1, 2, 3})
	if b.PayloadLen != 3 || b.Size() != 11 {
		t.Fatalf("payload message sizes wrong: %d %d", b.PayloadLen, b.Size())
	}
}

// payloadMessage builds a message carrying the given payload bytes, as
// msglayer's fragmenter does.
func payloadMessage(src, dst, handler int, payload []byte) *Message {
	return &Message{Src: src, Dst: dst, Handler: handler, Payload: payload, PayloadLen: len(payload)}
}

// Message is the frame of every queued fragment; at its peak a 256-node
// dsmc cell with infinite buffering holds about 46k of them. The runtime
// rounds an allocation up to its size class, so a 184 B frame took a
// 192 B slot: at most 144 B fills the 144 B class exactly.
func TestMessageFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got > 144 {
		t.Fatalf("netsim.Message is %d B, want <= 144 (the 144 B size class)", got)
	}
}
