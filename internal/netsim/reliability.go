// Fault plane and reliable delivery. The paper's network (§5.1.2) is
// lossless: a message is either accepted or bounced on a guaranteed second
// channel, and the ack/bounce always arrives. This file makes loss a
// first-class condition — an injectable FaultPlane at the inject/eject
// points — and layers end-to-end reliability on top of the return-to-sender
// protocol: a checksum over header+payload, sender-side retransmission
// timers with exponential backoff (generalizing the bounce-retry path),
// and a bounded attempt count that surfaces a structured DeliveryError
// instead of hanging the simulation.
package netsim

import (
	"fmt"
	"sort"
	"strings"

	"nisim/internal/sim"
)

// FaultVerdict is a fault plane's decision about one message transit.
// The zero value is "no fault". Drop and ForceBounce are exclusive of the
// remaining fields (a destroyed or returned message is neither corrupted,
// duplicated, nor delayed).
type FaultVerdict struct {
	// Drop destroys the message in flight: it consumes link bandwidth but
	// never arrives.
	Drop bool
	// Corrupt delivers a bit-flipped copy; the original (the sender's
	// retransmission buffer) is untouched.
	Corrupt bool
	// Duplicate delivers the message twice, the copies back to back.
	Duplicate bool
	// Delay adds extra delivery latency (jitter) on top of the network's
	// configured latency.
	Delay sim.Time
	// ForceBounce returns the message to its sender as if the receiver had
	// no free incoming buffer, regardless of actual buffer state.
	ForceBounce bool
}

// ControlKind distinguishes the control messages of the return-to-sender
// protocol for fault purposes.
//
//lint:enum
type ControlKind int

const (
	// AckControl is the acknowledgment freeing the sender's outgoing buffer.
	AckControl ControlKind = iota
	// BounceControl is the returned message on the second network.
	BounceControl
)

// FaultPlane injects faults at an endpoint's inject and eject points.
// A nil plane is the lossless network: behavior is bit-identical to a
// build without fault hooks. Implementations must be deterministic given
// the engine's deterministic event order (see internal/faults).
type FaultPlane interface {
	// Inject is consulted when src injects m toward its destination.
	Inject(now sim.Time, m *Message) FaultVerdict
	// Eject is consulted when m reaches its destination, before ejection.
	// Only Drop and Delay are honored at the eject point.
	Eject(now sim.Time, m *Message) FaultVerdict
	// DropControl is consulted when the receiver emits an ack or bounce for
	// m; true destroys the control message.
	DropControl(now sim.Time, kind ControlKind, m *Message) bool
}

// ReliabilityConfig configures the end-to-end reliable-delivery layer.
// The zero value disables it, preserving the paper's lossless protocol.
type ReliabilityConfig struct {
	Enabled bool
	// AckTimeout is the base retransmission timeout: attempt k re-injects
	// after AckTimeout<<(k-1), capped at TimeoutCap. It must exceed the
	// uncongested round trip or every send retransmits spuriously.
	AckTimeout sim.Time
	TimeoutCap sim.Time
	// MaxAttempts bounds timer-driven retransmissions per message; <= 0
	// means unlimited. Exceeding it abandons the send with a DeliveryError
	// instead of hanging. Bounce retries do not count: a bounce is the
	// receiver's explicit "try again" under flow-control contention, not
	// evidence of loss, and contended messages legitimately bounce dozens
	// of times (§5.1.2).
	MaxAttempts int
	// Deadline, when positive, is a per-message delivery deadline measured
	// from first injection. Unlike MaxAttempts it bounds bounce retries too,
	// so a sustained bounce storm (an overloaded receiver returning every
	// attempt) surfaces a DeliveryError instead of retrying forever. Zero
	// keeps sends open-ended, the pre-overload-plane behavior.
	Deadline sim.Time
}

// DefaultReliability returns a configuration tuned for the Table 3
// network: the base timeout covers the worst uncongested round trip
// (two 256-byte serializations plus two 40 ns latencies plus the ack)
// with ample margin for ejection queueing.
func DefaultReliability() ReliabilityConfig {
	return ReliabilityConfig{
		Enabled:     true,
		AckTimeout:  4 * sim.Microsecond,
		TimeoutCap:  128 * sim.Microsecond,
		MaxAttempts: 32,
	}
}

func (rc ReliabilityConfig) timeout(attempts int) sim.Time {
	d := rc.AckTimeout
	for i := 1; i < attempts && d < rc.TimeoutCap; i++ {
		d <<= 1
	}
	if rc.TimeoutCap > 0 && d > rc.TimeoutCap {
		d = rc.TimeoutCap
	}
	return d
}

// Reasons a reliable send can be abandoned, carried on DeliveryError so
// callers (and test assertions) can tell a retransmission budget blown by
// loss from a deadline blown by sustained overload.
const (
	// ReasonBudget: MaxAttempts timer-driven retransmissions went unacked.
	ReasonBudget = "retry budget exhausted"
	// ReasonDeadline: the per-message Deadline elapsed before delivery —
	// typically a bounce storm from an overloaded receiver.
	ReasonDeadline = "deadline exceeded"
)

// DeliveryError records a send abandoned by the reliability layer after
// exhausting its retransmission budget or missing its deadline.
type DeliveryError struct {
	Msg      *Message
	Attempts int
	// Time is when the send was abandoned.
	Time sim.Time
	// Reason is ReasonBudget or ReasonDeadline.
	Reason string
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("netsim: %v undeliverable after %d attempts (%s at %v)",
		e.Msg, e.Attempts, e.Reason, e.Time)
}

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnvMix64 folds v into an FNV-1a hash one little-endian byte at a time.
// A standalone function rather than a closure inside checksum: checksum is
// on the reliable-delivery hot path and must not allocate an environment.
func fnvMix64(h uint32, v uint64) uint32 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint32(v&0xFF)) * fnvPrime32
		v >>= 8
	}
	return h
}

// checksum is an FNV-1a hash over the message header fields and payload
// bytes. Synthetic payloads (Payload == nil) hash the length alone; the
// corrupt flag models bit flips in bytes the simulation does not carry.
func (m *Message) checksum() uint32 {
	h := uint32(fnvOffset32)
	h = fnvMix64(h, uint64(m.Src))
	h = fnvMix64(h, uint64(m.Dst))
	h = fnvMix64(h, uint64(m.Handler))
	h = fnvMix64(h, uint64(m.PayloadLen))
	h = fnvMix64(h, uint64(m.Channel))
	h = fnvMix64(h, m.Arg)
	h = fnvMix64(h, m.Seq)
	for _, b := range m.Payload {
		h = (h ^ uint32(b)) * fnvPrime32
	}
	return h
}

// SealChecksum computes and stores the header+payload checksum. The
// reliability layer seals every message at injection.
func (m *Message) SealChecksum() { m.Checksum = m.checksum() }

// ChecksumOK verifies the stored checksum against the message contents.
// A message whose synthetic payload was corrupted in flight (no real bytes
// to flip) fails via the corrupt flag.
func (m *Message) ChecksumOK() bool { return !m.corrupt && m.Checksum == m.checksum() }

// corruptedCopy returns a copy of m carrying a single flipped payload bit
// (chosen by bitPos), leaving the original — the sender's retransmission
// buffer — pristine. When the payload is synthetic the flip is modeled by
// the corrupt flag alone. Each copy owns its payload bytes: without the
// reliability layer a corrupted copy is delivered, and with it two copies
// of one message may be in flight at once. Only runs with faults and real
// payload bytes reach the allocation.
func (m *Message) corruptedCopy(bitPos uint64) *Message {
	c := *m
	c.corrupt = true
	if len(m.Payload) > 0 {
		p := make([]byte, len(m.Payload)) //lint:allow noalloc a corrupted copy owns its bytes, so neither the original nor another copy can see its flipped bit
		copy(p, m.Payload)
		i := int(bitPos/8) % len(p)
		p[i] ^= 1 << (bitPos % 8)
		c.Payload = p
	}
	return &c
}

// dupFrame returns the second arrival of a duplicated unreliable message:
// a copy of m on a frame from this endpoint's free list. The receiver owns
// an unsealed frame once it arrives and may free and reuse it before the
// duplicate lands, so each arrival must own its own frame. Under the
// reliability layer both arrivals share the sender-owned original, which
// no receiver frees.
func (ep *Endpoint) dupFrame(m *Message) *Message {
	d := ep.TakeFrame()
	*d = *m
	d.next = nil
	return d
}

// SetFaultPlane installs plane on every endpoint (nil restores lossless
// behavior). Per-endpoint planes can instead be set via Endpoint.Fault.
func (nw *Network) SetFaultPlane(plane FaultPlane) {
	for _, ep := range nw.eps {
		ep.Fault = plane
	}
}

// acked handles the acknowledgment for a reliable send: it cancels the
// retransmission timer and frees the outgoing buffer. Duplicate acks (the
// receiver acks every accepted copy of a retransmitted message) are
// ignored — the buffer was already freed. One-sided sends never held an
// outgoing buffer, so their ack settles through OnSettled instead — the
// frame-reuse signal for the sender's RDMA engine.
func (ep *Endpoint) acked(m *Message) {
	t, ok := ep.inflight[m]
	if !ok {
		return
	}
	t.Stop()
	delete(ep.inflight, m)
	if m.oneSided {
		ep.activity++
		if ep.OnSettled != nil {
			ep.OnSettled(m)
		}
		return
	}
	ep.releaseOut()
}

// armTimer (re)arms the retransmission timer for m after an injection. The
// previous transmission's timer, if still pending, is cancelled outright —
// stale timers no longer linger in the event heap as generation-guarded
// no-ops.
func (ep *Endpoint) armTimer(m *Message) {
	if t, ok := ep.inflight[m]; ok {
		t.Stop()
	}
	d := ep.net.cfg.Reliability.timeout(int(m.retx) + 1)
	ep.inflight[m] = ep.eng.AfterTimer(d, msgAckTimeout, m, 0) //lint:allow noalloc steady-state rewrite of a warm bucket; gated by TestReliableDeliveryPathAllocFree
}

// ackTimeout fires when a reliable send has gone unacknowledged for its
// timeout: it either retransmits or, past MaxAttempts, abandons the send
// with a structured DeliveryError — freeing the outgoing buffer so the
// simulation quiesces instead of hanging. Every settling path (ack, bounce,
// abandon, re-injection) stops the pending timer, so a firing timer always
// refers to a genuinely unacknowledged transmission; the inflight check is
// belt-and-braces for custom OnBounce handlers that drop a send.
func (ep *Endpoint) ackTimeout(m *Message) {
	if _, ok := ep.inflight[m]; !ok {
		return
	}
	rc := ep.net.cfg.Reliability
	if rc.MaxAttempts > 0 && int(m.retx) >= rc.MaxAttempts {
		ep.abandon(m, ReasonBudget)
		return
	}
	if m.deadline > 0 && ep.eng.Now() >= m.deadline {
		ep.abandon(m, ReasonDeadline)
		return
	}
	m.retx++
	if ep.Stats != nil {
		ep.Stats.Retransmits++
	}
	ep.Inject(m)
}

// abandon gives up on a reliable send: the inflight entry is removed, the
// outgoing buffer freed (so the simulation quiesces instead of hanging),
// and a structured DeliveryError recorded. Callers decide the reason.
func (ep *Endpoint) abandon(m *Message, reason string) {
	if t, ok := ep.inflight[m]; ok {
		t.Stop()
		delete(ep.inflight, m)
	}
	if ep.Stats != nil {
		ep.Stats.DeliveryFailures++
	}
	err := &DeliveryError{Msg: m, Attempts: int(m.attempts), Time: ep.eng.Now(), Reason: reason} //lint:allow noalloc at most one structured error per abandoned message, off the steady-state path
	ep.failures = append(ep.failures, err)                                                       //lint:allow noalloc failure log grows once per abandoned message, not per delivery
	if m.oneSided {
		// One-sided sends hold no outgoing buffer; settle the frame so the
		// sender's engine can reuse it.
		if ep.OnSettled != nil {
			ep.OnSettled(m)
		}
	} else {
		ep.releaseOut()
	}
}

// QuiescenceReport implements the engine's quiescence check for the
// network: it names every endpoint still holding flow-control buffers or
// tracking unacknowledged sends. Empty means the network is quiescent.
// netsim registers it with the engine at New; it is also useful directly
// after Engine.Run when a workload appears to have finished early.
func (nw *Network) QuiescenceReport() string {
	body := nw.endpointReport()
	if body == "" {
		return ""
	}
	return "netsim: network not quiescent — a message, ack, or bounce was lost:\n" + body
}

// StarvationReport names the endpoints implicated in sustained-overload
// starvation: traffic keeps churning (activity rises) but nothing is
// delivered. The body is the same per-endpoint buffer/inflight inventory
// as QuiescenceReport; only the diagnosis differs — here the messages are
// not lost, they are being perpetually bounced or retried. Empty means no
// endpoint is holding work.
func (nw *Network) StarvationReport() string {
	body := nw.endpointReport()
	if body == "" {
		return ""
	}
	return "netsim: sustained overload starvation — traffic is churning but nothing is delivered:\n" + body
}

// endpointReport is the shared body of the quiescence and starvation
// diagnostics: one line per endpoint still holding buffers or unacked sends.
func (nw *Network) endpointReport() string {
	var b strings.Builder
	for _, ep := range nw.eps {
		outHeld := ep.bufs - ep.outFree
		inHeld := ep.bufs - ep.inFree
		if outHeld == 0 && inHeld == 0 && len(ep.inflight) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  endpoint %d: outFree %d/%d (%d unacked sends), inFree %d/%d (%d undrained arrivals)",
			ep.id, ep.outFree, ep.bufs, outHeld, ep.inFree, ep.bufs, inHeld)
		if len(ep.inflight) > 0 {
			msgs := make([]*Message, 0, len(ep.inflight))
			for m := range ep.inflight {
				msgs = append(msgs, m)
			}
			sort.Slice(msgs, func(i, j int) bool { return msgs[i].Seq < msgs[j].Seq })
			fmt.Fprintf(&b, ", awaiting retransmit/ack:")
			for _, m := range msgs {
				fmt.Fprintf(&b, " %v(seq=%d,attempts=%d)", m, m.Seq, m.attempts)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
