package netsim

import (
	"bytes"
	"strings"
	"testing"

	"nisim/internal/sim"
	"nisim/internal/stats"
)

// scriptPlane is a FaultPlane whose decisions are supplied by the test.
type scriptPlane struct {
	inject func(now sim.Time, m *Message) FaultVerdict
	eject  func(now sim.Time, m *Message) FaultVerdict
	ctl    func(now sim.Time, kind ControlKind, m *Message) bool
}

func (p *scriptPlane) Inject(now sim.Time, m *Message) FaultVerdict {
	if p.inject == nil {
		return FaultVerdict{}
	}
	return p.inject(now, m)
}

func (p *scriptPlane) Eject(now sim.Time, m *Message) FaultVerdict {
	if p.eject == nil {
		return FaultVerdict{}
	}
	return p.eject(now, m)
}

func (p *scriptPlane) DropControl(now sim.Time, kind ControlKind, m *Message) bool {
	return p.ctl != nil && p.ctl(now, kind, m)
}

func testReliability() ReliabilityConfig {
	return ReliabilityConfig{
		Enabled:     true,
		AckTimeout:  1 * sim.Microsecond,
		TimeoutCap:  8 * sim.Microsecond,
		MaxAttempts: 3,
	}
}

func newReliableNet(n, bufs int) (*sim.Engine, *Network) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Reliability = testReliability()
	return eng, New(eng, cfg, n, bufs)
}

func TestSerializationCeiling(t *testing.T) {
	// A partial trailing word still costs a full link cycle: at 2 bytes/ns,
	// a 9-byte wire message serializes in ceil(9/2) = 5 ns, not 4.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.BytesPerNS = 2
	nw := New(eng, cfg, 2, 4)
	var arrived sim.Time
	nw.Endpoint(1).OnAccept = func(m *Message) {
		arrived = eng.Now()
		nw.Endpoint(1).ReleaseIn()
	}
	if !nw.Endpoint(0).TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { nw.Endpoint(0).Inject(NewSized(0, 1, 0, 1)) }, nil, 0) // 9B wire
	eng.Run()
	// 5ns inject + 40ns latency + 5ns eject = 50ns.
	if arrived != 50*sim.Nanosecond {
		t.Fatalf("arrival at %v, want 50ns", arrived)
	}
}

func TestDropThenRetransmitRecovers(t *testing.T) {
	eng, nw := newReliableNet(2, 4)
	st := stats.NewNode()
	sender := nw.Endpoint(0)
	sender.Stats = st
	drops := 0
	sender.Fault = &scriptPlane{inject: func(now sim.Time, m *Message) FaultVerdict {
		if drops == 0 {
			drops++
			return FaultVerdict{Drop: true}
		}
		return FaultVerdict{}
	}}
	delivered := 0
	nw.Endpoint(1).OnAccept = func(m *Message) {
		delivered++
		nw.Endpoint(1).ReleaseIn()
	}
	if !sender.TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if st.FaultDrops != 1 || st.Retransmits != 1 {
		t.Fatalf("drops=%d retransmits=%d, want 1/1", st.FaultDrops, st.Retransmits)
	}
	if sender.OutFree() != 4 {
		t.Fatalf("out buffer not freed after recovery: %d/4", sender.OutFree())
	}
	if len(nw.Failures()) != 0 {
		t.Fatalf("unexpected delivery failures: %v", nw.Failures())
	}
}

func TestAckLossCausesDuplicateButSingleRelease(t *testing.T) {
	eng, nw := newReliableNet(2, 4)
	sendStats, recvStats := stats.NewNode(), stats.NewNode()
	sender, recv := nw.Endpoint(0), nw.Endpoint(1)
	sender.Stats = sendStats
	recv.Stats = recvStats
	ackDrops := 0
	recv.Fault = &scriptPlane{ctl: func(now sim.Time, kind ControlKind, m *Message) bool {
		if kind == AckControl && ackDrops == 0 {
			ackDrops++
			return true
		}
		return false
	}}
	delivered := 0
	recv.OnAccept = func(m *Message) {
		delivered++
		recv.ReleaseIn()
	}
	if !sender.TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.Run()
	// The first copy is accepted but its ack is destroyed; the timeout
	// retransmits, the second copy is accepted and acked. The receiver saw
	// the message twice; the sender's buffer is released exactly once.
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (original + retransmission)", delivered)
	}
	if recvStats.CtlDrops != 1 || sendStats.Retransmits != 1 {
		t.Fatalf("ctlDrops=%d retransmits=%d, want 1/1", recvStats.CtlDrops, sendStats.Retransmits)
	}
	if sender.OutFree() != 4 {
		t.Fatalf("out free = %d, want 4 (single release, no surplus credit)", sender.OutFree())
	}
}

func TestCorruptionDetectedAndRetransmitted(t *testing.T) {
	eng, nw := newReliableNet(2, 4)
	sendStats, recvStats := stats.NewNode(), stats.NewNode()
	sender, recv := nw.Endpoint(0), nw.Endpoint(1)
	sender.Stats = sendStats
	recv.Stats = recvStats
	corruptions := 0
	sender.Fault = &scriptPlane{inject: func(now sim.Time, m *Message) FaultVerdict {
		if corruptions == 0 {
			corruptions++
			return FaultVerdict{Corrupt: true}
		}
		return FaultVerdict{}
	}}
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	var got *Message
	recv.OnAccept = func(m *Message) {
		got = m
		recv.ReleaseIn()
	}
	if !sender.TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	m := payloadMessage(0, 1, 0, payload)
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(m) }, nil, 0)
	eng.Run()
	if got == nil {
		t.Fatal("message never delivered")
	}
	if !bytes.Equal(got.Payload, []byte{0xDE, 0xAD, 0xBE, 0xEF}) {
		t.Fatalf("delivered payload %x corrupted", got.Payload)
	}
	if !bytes.Equal(m.Payload, []byte{0xDE, 0xAD, 0xBE, 0xEF}) {
		t.Fatalf("sender's retransmission buffer %x was corrupted in place", m.Payload)
	}
	if recvStats.CorruptDropped != 1 {
		t.Fatalf("corruptDropped = %d, want 1", recvStats.CorruptDropped)
	}
	if sendStats.FaultCorruptions != 1 || sendStats.Retransmits != 1 {
		t.Fatalf("corruptions=%d retransmits=%d, want 1/1",
			sendStats.FaultCorruptions, sendStats.Retransmits)
	}
}

func TestChecksumCoversHeaderAndPayload(t *testing.T) {
	// The 1- and 249-byte payloads end in a partial word; a synthetic
	// payload carries no bytes, so its corruption rides the corrupt flag.
	for _, tc := range []struct {
		name string
		m    *Message
	}{
		{"3B", payloadMessage(0, 1, 3, []byte{1, 2, 3})},
		{"1B", payloadMessage(3, 7, 2, []byte{0xff})},
		{"20B", payloadMessage(1, 0, 4, bytes.Repeat([]byte{0xa5}, 20))},
		{"249B", payloadMessage(6, 5, 1, bytes.Repeat([]byte{0x5a}, 249))},
		{"synthetic", NewSized(1, 2, 3, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			m.Seq = 7
			m.SealChecksum()
			if !m.ChecksumOK() {
				t.Fatal("fresh checksum does not verify")
			}
			orig := bytes.Clone(m.Payload)
			for i := range m.Payload {
				m.Payload[i] ^= 0x10
				if m.ChecksumOK() {
					t.Fatalf("flip of payload byte %d not detected", i)
				}
				m.Payload[i] ^= 0x10
			}
			m.Handler++
			if m.ChecksumOK() {
				t.Fatal("header field change not detected")
			}
			m.Handler--
			if !m.ChecksumOK() {
				t.Fatal("restored message does not verify")
			}
			if c := m.corruptedCopy(13); c.ChecksumOK() {
				t.Fatal("corrupted copy verifies")
			}
			if !m.ChecksumOK() || !bytes.Equal(m.Payload, orig) {
				t.Fatal("corruptedCopy mutated the original")
			}
			// Under the reliability layer two corrupted copies of one
			// message can be in flight at once: each owns its bytes, so
			// the second flip neither shows in the first copy nor reaches
			// the original, the sender's retransmission buffer.
			_, m.net = newReliableNet(2, 1)
			c1 := m.corruptedCopy(13)
			first := bytes.Clone(c1.Payload)
			c2 := m.corruptedCopy(21)
			if c1.ChecksumOK() || c2.ChecksumOK() {
				t.Fatal("corrupted copy verifies under reliability")
			}
			if len(orig) > 0 {
				if &c1.Payload[0] == &c2.Payload[0] || &c1.Payload[0] == &m.Payload[0] || &c2.Payload[0] == &m.Payload[0] {
					t.Fatal("corrupted copies share payload bytes")
				}
				if !bytes.Equal(c1.Payload, first) {
					t.Fatal("second corrupted copy changed the first's payload")
				}
				if bytes.Equal(c1.Payload, orig) || bytes.Equal(c2.Payload, orig) {
					t.Fatal("corrupted copy carries no flipped bit")
				}
			}
			if !m.ChecksumOK() || !bytes.Equal(m.Payload, orig) {
				t.Fatal("corruptedCopy under reliability mutated the original")
			}
		})
	}
}

func TestMaxAttemptsSurfacesDeliveryError(t *testing.T) {
	eng, nw := newReliableNet(2, 4)
	st := stats.NewNode()
	sender := nw.Endpoint(0)
	sender.Stats = st
	sender.Fault = &scriptPlane{inject: func(now sim.Time, m *Message) FaultVerdict {
		return FaultVerdict{Drop: true} // black hole: nothing ever arrives
	}}
	nw.Endpoint(1).OnAccept = func(m *Message) { t.Error("black-holed message arrived") }
	if !sender.TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.Run() // must terminate: the bounded attempt count abandons the send
	if len(nw.Failures()) != 1 {
		t.Fatalf("network failure log = %v, want one DeliveryError", nw.Failures())
	}
	gotErr := nw.Failures()[0]
	// MaxAttempts=3 bounds retransmissions: 1 original + 3 retransmits.
	if gotErr.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", gotErr.Attempts)
	}
	if st.DeliveryFailures != 1 || st.Retransmits != 3 {
		t.Fatalf("failures=%d retransmits=%d, want 1/3", st.DeliveryFailures, st.Retransmits)
	}
	if sender.OutFree() != 4 {
		t.Fatalf("abandoned send leaked its out buffer: %d/4", sender.OutFree())
	}
	if !strings.Contains(gotErr.Error(), "undeliverable after 4 attempts") {
		t.Fatalf("error text %q", gotErr.Error())
	}
}

func TestBouncesDoNotCountTowardRetransmissionBudget(t *testing.T) {
	// With one receive buffer held, a reliable send bounces far more times
	// than MaxAttempts allows retransmissions — and must NOT be abandoned:
	// a bounce is flow control, not loss.
	eng, nw := newReliableNet(2, 1)
	st := stats.NewNode()
	sender, recv := nw.Endpoint(0), nw.Endpoint(1)
	sender.Stats = st
	delivered := 0
	recv.OnAccept = func(m *Message) { delivered++ } // hold the in-buffer
	if !sender.TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.Run()
	if delivered != 1 {
		t.Fatal("setup message not accepted")
	}
	// Second message bounces against the held buffer for 20us — dozens of
	// hardware retries with the 150ns-base backoff — before release.
	if !sender.TryAcquireOut() {
		t.Fatal("no credit after first ack")
	}
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.AfterEvent(20*sim.Microsecond, func(any, uint64) { recv.ReleaseIn() }, nil, 0)
	eng.Run()
	if delivered != 2 {
		t.Fatalf("second message never accepted (delivered=%d)", delivered)
	}
	if st.Bounces <= 3 {
		t.Fatalf("bounces = %d, want far more than MaxAttempts=3", st.Bounces)
	}
	if len(nw.Failures()) != 0 || st.DeliveryFailures != 0 {
		t.Fatalf("contended send falsely abandoned: %v", nw.Failures())
	}
}

func TestStaleBounceOfAckedMessageIsDiscarded(t *testing.T) {
	// A duplicated copy can bounce after the original was accepted and
	// acked; the settled send must not be re-pushed.
	eng, nw := newReliableNet(2, 1)
	sender, recv := nw.Endpoint(0), nw.Endpoint(1)
	st := stats.NewNode()
	sender.Stats = st
	sender.Fault = &scriptPlane{inject: func(now sim.Time, m *Message) FaultVerdict {
		return FaultVerdict{Duplicate: true}
	}}
	delivered := 0
	recv.OnAccept = func(m *Message) { delivered++ } // hold: the duplicate bounces
	if !sender.TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.AfterEvent(5*sim.Microsecond, func(any, uint64) { recv.ReleaseIn() }, nil, 0)
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (duplicate bounced against held buffer)", delivered)
	}
	if st.Retries != 0 {
		t.Fatalf("stale bounce of an acked send was retried %d times", st.Retries)
	}
	if sender.OutFree() != 1 {
		t.Fatalf("out free = %d, want 1", sender.OutFree())
	}
}

func TestQuiescenceReportNamesHeldEndpoints(t *testing.T) {
	eng, nw := newReliableNet(3, 2)
	if !nw.Endpoint(0).TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	_ = eng
	r := nw.QuiescenceReport()
	if !strings.Contains(r, "endpoint 0") || !strings.Contains(r, "outFree 1/2") {
		t.Fatalf("report does not name the holding endpoint:\n%s", r)
	}
	if strings.Contains(r, "endpoint 1") || strings.Contains(r, "endpoint 2") {
		t.Fatalf("report names quiescent endpoints:\n%s", r)
	}
	nw.Endpoint(0).releaseOut()
	if r := nw.QuiescenceReport(); r != "" {
		t.Fatalf("quiescent network reports %q", r)
	}
}

func TestReleaseOutIgnoresSurplusCredits(t *testing.T) {
	_, nw := newNet(2, 2)
	ep := nw.Endpoint(0)
	fired := 0
	ep.OnOutFree = func() { fired++ }
	ep.releaseOut() // nothing held: surplus, must be ignored
	if ep.OutFree() != 2 {
		t.Fatalf("surplus credit accepted: outFree=%d", ep.OutFree())
	}
}
