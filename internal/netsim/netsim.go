// Package netsim models the paper's abstract network and its end-to-end
// flow control. The network is topology-less: a message injected at one
// node arrives at another 40 ns after injection of its last byte (Table 3).
// Flow control is return-to-sender (§5.1.2): the sending NI allocates one
// of F outgoing buffers and injects; the receiving NI either accepts the
// message into one of its F incoming buffers and acknowledges (freeing the
// sender's buffer), or bounces the message back on a guaranteed second
// network, after which the sender retries from the still-allocated buffer.
package netsim

import (
	"fmt"

	"nisim/internal/sim"
	"nisim/internal/stats"
)

// HeaderBytes is the fixed per-message header size (§6.1: "each message
// contains an eight-byte header").
const HeaderBytes = 8

// Infinite, used as a buffer count, models unbounded flow-control buffering
// (the black bars of Figure 3a).
const Infinite = int(1) << 40

// Message is one network message.
type Message struct {
	Src, Dst int
	// Handler is the active-message handler index (messaging-layer level).
	Handler int
	// Payload carries real bytes when integrity matters (tests, examples).
	// It may be nil, in which case PayloadLen alone defines the size.
	Payload []byte
	// PayloadLen is the payload size in bytes.
	PayloadLen int
	// Channel is a virtual-channel tag used by the bulk-transfer layer.
	Channel int
	// Arg carries small out-of-band metadata for protocol layers.
	Arg uint64
	// SendTime is when the messaging layer started the send (for latency
	// accounting); ArriveTime is set on acceptance at the destination.
	SendTime, ArriveTime sim.Time

	// Seq is the per-sender reliable-delivery sequence number, assigned at
	// first injection when the network runs with reliability enabled (zero
	// otherwise).
	Seq uint64
	// Checksum covers header fields and payload (see SealChecksum); the
	// reliability layer verifies it at the destination.
	Checksum uint32

	// The unexported fields are ordered so the frame packs into 144 B, a
	// size class of the runtime's allocator (TestMessageFrameSize): the two
	// flags fill the padding after Checksum.
	corrupt bool // corrupted in flight; ChecksumOK reports false
	// oneSided marks an RDMA put frame (see Endpoint.Put). One-sided
	// messages hold no flow-control buffer on either side, carry no handler dispatch, and can neither bounce nor be
	// admission-refused: the rendezvous handshake already reserved their
	// landing memory, so delivery is decided by the checksum gate alone.
	oneSided bool
	attempts int32 // total injections (first send, bounce retries, retransmits)
	retx     int32 // timer-driven retransmissions only (bounded by MaxAttempts)
	// deadline is the absolute delivery deadline stamped at first injection
	// when the reliability layer runs with a per-message deadline; zero means
	// none. Retries (timer or bounce) past it abandon the send.
	deadline sim.Time

	// net is set at first injection so typed-event handlers can resolve the
	// source and destination endpoints from the message alone.
	net *Network
	// orig, on a cross-shard transit copy under the reliability layer,
	// points at the sender-owned original (the retransmission buffer). The
	// receiver's acks and bounces settle the original, never the copy; see
	// origin.
	orig *Message
	// next links the message on its endpoint's free list (TakeFrame,
	// FreeFrame).
	next *Message
}

// IsPut reports whether m is a one-sided RDMA put frame.
func (m *Message) IsPut() bool { return m.oneSided }

// Recycle resets the delivery state a previous transit left on m so the
// message can be injected again as a fresh send. Payload and addressing
// are kept — the caller overwrites those per send; what must be cleared is
// the reliability identity (Seq, Checksum, deadline), the attempt
// counters, and the one-sided marking, or the next Inject would treat the
// reused message as a retransmission of the old one.
// Protocol layers recycle through Endpoint.FreeFrame, which calls it.
//
//lint:hotpath
func (m *Message) Recycle() {
	m.Seq = 0
	m.Checksum = 0
	m.attempts = 0
	m.retx = 0
	m.corrupt = false
	m.deadline = 0
	m.orig = nil
	m.oneSided = false
	m.SendTime = 0
	m.ArriveTime = 0
}

// origin resolves the sender-owned message a control reply must settle:
// the original behind a cross-shard transit copy, or m itself.
//
//lint:hotpath
func (m *Message) origin() *Message {
	if m.orig != nil {
		return m.orig
	}
	return m
}

// NewSized builds a message with a synthetic payload of n bytes.
func NewSized(src, dst, handler, n int) *Message {
	return &Message{Src: src, Dst: dst, Handler: handler, PayloadLen: n}
}

// Size returns the wire size: payload plus the 8-byte header.
func (m *Message) Size() int { return m.PayloadLen + HeaderBytes }

func (m *Message) String() string {
	return fmt.Sprintf("msg{%d->%d h%d %dB}", m.Src, m.Dst, m.Handler, m.Size())
}

// Config holds network parameters.
type Config struct {
	// Latency is the time from injection of the last byte at the source to
	// arrival of the first byte at the destination (Table 3: 40 ns).
	Latency sim.Time
	// BytesPerNS is the link bandwidth for injection/ejection serialization.
	BytesPerNS int
	// RetryBase is the backoff before re-injecting a bounced message;
	// attempt k waits k×RetryBase, capped at RetryCap.
	RetryBase sim.Time
	RetryCap  sim.Time
	// MaxNetMsg is the maximum single network message size (Table 3:
	// 256 bytes). The messaging layer fragments larger sends.
	MaxNetMsg int
	// Reliability configures the end-to-end reliable-delivery layer; the
	// zero value keeps the paper's lossless protocol unchanged.
	Reliability ReliabilityConfig
}

// DefaultConfig returns the Table 3 network.
func DefaultConfig() Config {
	return Config{
		Latency:    40 * sim.Nanosecond,
		BytesPerNS: 1,
		RetryBase:  150 * sim.Nanosecond,
		RetryCap:   2 * sim.Microsecond,
		MaxNetMsg:  256,
	}
}

// Router carries cross-shard event handoff for a partitioned simulation.
// It is the netsim-side view of internal/sim/partition: ShardOf names the
// shard owning a node, and Post schedules a typed event on another shard's
// engine as if the posting shard's engine had scheduled it at time schedAt
// (the caller's clock). Implementations must only be driven between
// conservative windows; netsim endpoints call Post only for events at
// least one network latency ahead, which is what makes the windows safe.
type Router interface {
	// ShardOf returns the shard index owning node id.
	ShardOf(node int) int
	// Post schedules h(recv, arg) at absolute time at on the shard owning
	// dst, stamped as scheduled at schedAt by src's shard with src's
	// per-node post sequence seq (the content-based tie-break; see
	// sim.AtEventPosted).
	Post(src, dst int, at, schedAt sim.Time, seq uint64, h sim.Handler, recv any, arg uint64)
}

// Network connects a fixed set of endpoints.
type Network struct {
	eng    *sim.Engine
	cfg    Config
	eps    []*Endpoint
	router Router // nil when the whole network lives on one engine
}

// Partition rebinds every endpoint to the engine of its shard and installs
// the router that carries cross-shard traffic between windows. engOf maps
// a node id to its shard's engine; r.ShardOf must agree with it. Call once,
// after New and before any traffic. With no Partition call the network
// runs exactly as before: every endpoint on the construction engine, no
// router, byte-identical behavior.
func (nw *Network) Partition(r Router, engOf func(node int) *sim.Engine) {
	nw.router = r
	for _, ep := range nw.eps {
		ep.eng = engOf(ep.id)
		ep.shard = r.ShardOf(ep.id)
	}
}

// New creates a network with n endpoints, each with bufs flow-control
// buffers in each direction (use Infinite for unbounded).
func New(eng *sim.Engine, cfg Config, n, bufs int) *Network {
	nw := &Network{eng: eng, cfg: cfg}
	for i := 0; i < n; i++ {
		ep := &Endpoint{
			net: nw, id: i, eng: eng,
			outFree: bufs, inFree: bufs, bufs: bufs,
		}
		if cfg.Reliability.Enabled {
			ep.inflight = make(map[*Message]sim.Timer)
		}
		nw.eps = append(nw.eps, ep)
	}
	eng.RegisterQuiescence(nw.QuiescenceReport)
	return nw
}

// Endpoint returns endpoint i.
func (nw *Network) Endpoint(i int) *Endpoint { return nw.eps[i] }

// Size returns the number of endpoints.
func (nw *Network) Size() int { return len(nw.eps) }

// Config returns the network configuration.
func (nw *Network) Config() Config { return nw.cfg }

// Delivered returns the count of accepted data messages network-wide. The
// count lives per endpoint (each written only by its owning shard) and is
// summed here; read it only from serial context or between windows.
func (nw *Network) Delivered() int64 {
	var d int64
	for _, ep := range nw.eps {
		d += ep.delivered
	}
	return d
}

// Progress returns the two watchdog counters together: protocol activity
// (injections, decisions, buffer releases) and accepted deliveries. Rising
// activity with flat deliveries over a long interval is the signature of
// sustained-overload starvation — a bounce or retransmission storm churning
// the network without ever landing a message — which is distinct from
// livelock (flat activity: nothing moves at all).
func (nw *Network) Progress() (activity, delivered int64) {
	for _, ep := range nw.eps {
		activity += ep.activity
		delivered += ep.delivered
	}
	return activity, delivered
}

// Failures returns every send abandoned by the reliability layer after
// exhausting its retransmission budget or missing its deadline, grouped by
// abandoning endpoint in node-id order (chronological within a node).
func (nw *Network) Failures() []*DeliveryError {
	var out []*DeliveryError
	for _, ep := range nw.eps {
		out = append(out, ep.failures...)
	}
	return out
}

// Typed-event handlers for the message hot path. Each is one shared
// package-level function — scheduling it allocates nothing — with the
// message (or endpoint) as the receiver; the message's net back-pointer
// resolves the acting endpoint. They replace the per-hop closures that
// previously allocated a fresh environment for every network transit.
//
//lint:hotpath
func msgArrive(recv any, _ uint64) { m := recv.(*Message); m.net.eps[m.Dst].arrive(m) }

//lint:hotpath
func msgEject(recv any, _ uint64) { m := recv.(*Message); m.net.eps[m.Dst].eject(m) }

//lint:hotpath
func msgDecide(recv any, _ uint64) { m := recv.(*Message); m.net.eps[m.Dst].decide(m) }

//lint:hotpath
func msgOneSided(recv any, _ uint64) { m := recv.(*Message); m.net.eps[m.Dst].oneSidedDeliver(m) }

//lint:hotpath
func msgAcked(recv any, _ uint64) { m := recv.(*Message); m.net.eps[m.Src].acked(m) }

//lint:hotpath
func msgBounced(recv any, _ uint64) {
	m := recv.(*Message)
	m.net.eps[m.Src].bounced(m)
}

//lint:hotpath
func msgRetryInject(recv any, _ uint64) {
	m := recv.(*Message)
	ep := m.net.eps[m.Src]
	if ep.Stats != nil {
		ep.Stats.Retries++
	}
	ep.Inject(m)
}

//lint:hotpath
func msgAckTimeout(recv any, _ uint64) { m := recv.(*Message); m.net.eps[m.Src].ackTimeout(m) }

//lint:hotpath
func epReleaseOut(recv any, _ uint64) { recv.(*Endpoint).releaseOut() }

//lint:hotpath
func epControl(recv any, arg uint64) { recv.(*Endpoint).OnControl(arg) }

//lint:hotpath
func epNotifyOutFree(recv any, _ uint64) {
	ep := recv.(*Endpoint)
	if ep.OnOutFree != nil {
		ep.OnOutFree()
	}
}

// post schedules the typed event h(recv, arg) at absolute time at on the
// engine owning node dst: locally when dst shares this endpoint's shard
// (or the network is unpartitioned), through the Router seam otherwise.
// Every call site posts at least one network latency ahead of now — the
// conservative-lookahead contract that makes partitioned windows safe
// (DESIGN.md §10).
//
//lint:hotpath
func (ep *Endpoint) post(dst int, at sim.Time, h sim.Handler, recv any, arg uint64) {
	ep.postSeq++
	r := ep.net.router
	if r == nil || r.ShardOf(dst) == ep.shard {
		ep.eng.AtEventPosted(at, ep.id, ep.postSeq, h, recv, arg)
		return
	}
	r.Post(ep.id, dst, at, ep.eng.Now(), ep.postSeq, h, recv, arg)
}

// PostControl delivers arg to dst's OnControl hook one network latency
// from now, on the engine owning dst, stamped with this endpoint's post
// sequence so its ordering against data traffic is deterministic. It is the
// NI layer's seam for cross-node control exchange that must not ride shared
// Go state — the throttled coherent NI's credit return uses it — and the
// fixed one-latency lag is what satisfies the conservative-lookahead
// contract that makes partitioned windows safe (DESIGN.md §10).
//
//lint:hotpath
func (ep *Endpoint) PostControl(dst int, arg uint64) {
	ep.post(dst, ep.eng.Now()+ep.net.cfg.Latency, epControl, ep.net.eps[dst], arg)
}

// crossShard reports whether node dst lives on a different shard than this
// endpoint (always false on an unpartitioned network).
//
//lint:hotpath
func (ep *Endpoint) crossShard(dst int) bool {
	r := ep.net.router
	return r != nil && r.ShardOf(dst) != ep.shard
}

// transitCopy returns the receiver-owned copy of m used for cross-shard
// delivery under the reliability layer: the original stays at the sender
// as the retransmission buffer (and may be re-injected concurrently with
// the copy's delivery on the other shard), so the two sides must not share
// a mutable object. Control replies settle the original via origin.
func (m *Message) transitCopy() *Message {
	c := *m //lint:allow noalloc one copy per cross-shard reliable transit; the shards would otherwise share a mutable message
	c.orig = m.origin()
	return &c
}

func (nw *Network) serialization(bytes int) sim.Time {
	if nw.cfg.BytesPerNS <= 0 {
		return 0
	}
	// Ceiling division: a partial trailing word still costs a full cycle.
	return sim.Time((bytes+nw.cfg.BytesPerNS-1)/nw.cfg.BytesPerNS) * sim.Nanosecond
}

// Endpoint is one NI's attachment to the network, implementing the
// return-to-sender protocol. The owning NI wires OnAccept (and optionally
// OnOutFree) and calls TryAcquireOut/Inject to send and ReleaseIn when it has
// drained an accepted message out of the incoming flow-control buffer.
type Endpoint struct {
	net  *Network
	id   int
	bufs int

	// eng is the engine this endpoint's events run on: the network's
	// construction engine, or the endpoint's shard engine after
	// Network.Partition. shard is meaningful only when a router is
	// installed.
	eng   *sim.Engine
	shard int

	// Watchdog/diagnostic counters, kept per endpoint so each is written
	// only by its owning shard (see Network.Delivered, Activity, Failures).
	delivered int64
	activity  int64
	failures  []*DeliveryError

	// postSeq numbers this endpoint's posts; together with the endpoint id
	// it is the content-based tie-break slotting each post into the engine
	// heap independently of scheduling-call interleaving (sim.AtEventPosted).
	postSeq uint64

	outFree int
	inFree  int

	nextInjectAt sim.Time
	nextEjectAt  sim.Time

	// seq numbers this endpoint's reliable sends; inflight maps each to its
	// live retransmission timer until the send is acked, failed, or the
	// network is torn down. A bounced send keeps its entry with a stopped
	// timer until the retry re-arms it.
	seq      uint64
	inflight map[*Message]sim.Timer

	// frames is the free list of messages protocol layers have finished
	// with, linked through Message.next (TakeFrame, FreeFrame). Each list
	// belongs to one endpoint, so it is only touched from that endpoint's
	// shard.
	frames *Message

	// OnAccept is invoked when an arriving message is accepted into an
	// incoming flow-control buffer. The NI must eventually call ReleaseIn
	// exactly once per accepted message.
	OnAccept func(m *Message)
	// OnOutFree, if non-nil, is invoked whenever an outgoing buffer frees
	// (for NI-managed send queues that drain as credits return).
	OnOutFree func()
	// OnControl receives the arg of every PostControl addressed to this
	// endpoint. It runs in network-event context on this endpoint's engine.
	OnControl func(arg uint64)
	// OnBounce, if non-nil, is invoked when a message is returned to this
	// sender, and the NI takes over the retry — for processor-managed NIs,
	// software must notice the returned message and re-push it (the
	// "processor involved in buffering" column of Table 2). When nil, the
	// endpoint retries in hardware after a backoff (NI-managed buffering).
	OnBounce func(m *Message)
	// OnPut is invoked when a one-sided put frame lands (see Endpoint.Put).
	// It runs in network-event context, not a receiver process: the frame's
	// bytes were deposited directly into pre-negotiated memory, so the hook
	// must do bookkeeping only — no processor time, no blocking. The message
	// is receiver-owned after the call only on a lossless network; under the
	// reliability layer the sender retains it for retransmission.
	OnPut func(m *Message)
	// OnSettled, if non-nil, is invoked when the reliability layer settles a
	// one-sided send — acknowledged or abandoned. One-sided frames hold no
	// outgoing buffer, so this hook replaces the releaseOut credit as the
	// sender's "safe to reuse the frame" signal.
	OnSettled func(m *Message)
	// Admit, if non-nil, is the NI's admission-control hook, consulted for
	// every arriving data message after the checksum gate and before the
	// flow-control buffer check. Nil (the default) is the paper's lossless
	// accept-or-bounce protocol, bit-identical to a build without the hook.
	// AdmitBounce returns the message on the second network even with free
	// buffers; AdmitDrop destroys it silently — recovery, if any, is the
	// sender's reliability layer, exactly as for a fault-plane drop.
	// One-sided frames never consult Admit: they carry no handler dispatch
	// and occupy no receive buffer, so there is nothing to refuse.
	Admit func(m *Message) AdmitDecision
	// Fault, if non-nil, injects faults into this endpoint's traffic at the
	// inject and eject points. Nil is the lossless network.
	Fault FaultPlane
	// Stats receives flow-control counters; may be nil.
	Stats *stats.Node
}

// ID returns the endpoint's node id.
func (ep *Endpoint) ID() int { return ep.id }

// Nodes returns the number of endpoints on the network.
func (ep *Endpoint) Nodes() int { return len(ep.net.eps) }

// Buffers returns the configured flow-control buffer count per direction.
func (ep *Endpoint) Buffers() int { return ep.bufs }

// OutFree returns the number of free outgoing buffers.
func (ep *Endpoint) OutFree() int { return ep.outFree }

// InFree returns the number of free incoming buffers.
func (ep *Endpoint) InFree() int { return ep.inFree }

// MaxNetMsg returns the network's single-message size ceiling, so engines
// that fragment (RDMA puts) can size frames without a config back-channel.
func (ep *Endpoint) MaxNetMsg() int { return ep.net.cfg.MaxNetMsg }

// Reliable reports whether the network runs the ack/retransmit protocol —
// one-sided senders track settlement only when it does.
func (ep *Endpoint) Reliable() bool { return ep.net.cfg.Reliability.Enabled }

// TakeFrame returns a message from this endpoint's free list, or a new one
// when the list is empty. The caller fills in every field it sends with.
//
//lint:hotpath
func (ep *Endpoint) TakeFrame() *Message {
	m := ep.frames
	if m == nil {
		return &Message{} //lint:allow noalloc the free list starts empty; frames recycle once receivers and settlements free them
	}
	ep.frames = m.next
	m.next = nil
	return m
}

// FreeFrame returns m to this endpoint's free list. The caller must hold
// the only reference: a frame the reliability layer sealed (Seq != 0)
// belongs to its sender until it settles, so a receiver frees only
// unsealed frames, and a sender frees sealed ones once they settle.
//
//lint:hotpath
func (ep *Endpoint) FreeFrame(m *Message) {
	m.Recycle()
	m.Payload = nil
	m.PayloadLen = 0
	m.next = ep.frames
	ep.frames = m
}

// TryAcquireOut claims an outgoing flow-control buffer if one is free.
//
//lint:hotpath
func (ep *Endpoint) TryAcquireOut() bool {
	if ep.outFree <= 0 {
		return false
	}
	ep.outFree--
	return true
}

// releaseOut returns an outgoing buffer (ack received or send aborted).
// Surplus credits are ignored: under fault injection without the
// reliability layer, a duplicated message is acknowledged twice, and a
// credit-counting NI discards the spurious second credit.
//
//lint:hotpath
func (ep *Endpoint) releaseOut() {
	if ep.outFree >= ep.bufs {
		return
	}
	ep.activity++
	ep.outFree++
	if ep.OnOutFree != nil {
		ep.eng.AfterEvent(0, epNotifyOutFree, ep, 0)
	}
}

// Inject serializes m onto the link and launches it toward its destination.
// The caller must have acquired an outgoing buffer. Injection is pipelined:
// Inject returns immediately and the link schedule advances.
//
//lint:hotpath
func (ep *Endpoint) Inject(m *Message) {
	if m.Src != ep.id {
		panic(fmt.Sprintf("netsim: endpoint %d injecting message with src %d", ep.id, m.Src))
	}
	if m.Dst == ep.id {
		panic("netsim: message to self")
	}
	if m.Size() > ep.net.cfg.MaxNetMsg {
		panic(fmt.Sprintf("netsim: message size %d exceeds network maximum %d", m.Size(), ep.net.cfg.MaxNetMsg))
	}
	if ep.net.cfg.Reliability.Enabled {
		if m.Seq == 0 {
			ep.seq++
			m.Seq = ep.seq
			if d := ep.net.cfg.Reliability.Deadline; d > 0 {
				m.deadline = ep.eng.Now() + d
			}
		}
		m.SealChecksum()
	}
	m.net = ep.net
	m.attempts++
	ep.activity++
	eng := ep.eng
	start := eng.Now()
	if ep.nextInjectAt > start {
		start = ep.nextInjectAt
	}
	injectEnd := start + ep.net.serialization(m.Size())
	ep.nextInjectAt = injectEnd
	if ep.net.cfg.Reliability.Enabled {
		ep.armTimer(m)
	}
	arriveAt := injectEnd + ep.net.cfg.Latency
	// Cross-shard reliable sends deliver a transit copy: the original stays
	// here as the retransmission buffer. Lossless sends hand over the
	// message itself — ownership transfers to the receiver and returns only
	// via a bounce, itself a lookahead away.
	arr := m
	if ep.net.cfg.Reliability.Enabled && ep.crossShard(m.Dst) {
		arr = m.transitCopy()
	}
	if ep.Fault != nil {
		v := ep.Fault.Inject(eng.Now(), m)
		switch {
		case v.Drop:
			// Link bandwidth was consumed; the message never arrives.
			if ep.Stats != nil {
				ep.Stats.FaultDrops++
			}
			return
		case v.ForceBounce:
			// One-sided frames cannot bounce — there is no receive buffer to
			// refuse them from — so a forced bounce degrades to a drop: the
			// bandwidth is consumed and the reliability layer (if any)
			// retransmits.
			if m.oneSided {
				if ep.Stats != nil {
					ep.Stats.FaultDrops++
				}
				return
			}
			if ep.Stats != nil {
				ep.Stats.ForcedBounces++
			}
			eng.AtEvent(arriveAt+ep.net.serialization(m.Size()), msgBounced, m, 0)
			return
		}
		if v.Delay > 0 {
			if ep.Stats != nil {
				ep.Stats.FaultDelays++
			}
			arriveAt += v.Delay
		}
		if v.Corrupt {
			if ep.Stats != nil {
				ep.Stats.FaultCorruptions++
			}
			arr = arr.corruptedCopy(uint64(arriveAt))
		}
		ep.post(m.Dst, arriveAt, msgArrive, arr, 0)
		if v.Duplicate {
			if ep.Stats != nil {
				ep.Stats.FaultDuplicates++
			}
			if !ep.net.cfg.Reliability.Enabled {
				arr = ep.dupFrame(arr)
			}
			ep.post(m.Dst, arriveAt+ep.net.serialization(m.Size()), msgArrive, arr, 0)
		}
		return
	}
	ep.post(m.Dst, arriveAt, msgArrive, arr, 0)
}

// Put injects m as a one-sided RDMA put frame. No outgoing flow-control
// buffer is acquired and none is needed at the receiver: the rendezvous
// handshake (or explicit registration) already reserved the landing memory,
// so the frame rides the data network straight into OnPut at the target —
// it can neither bounce nor be admission-refused. Link serialization,
// fault injection, and the reliability layer (seq/checksum/retransmission,
// settled via OnSettled instead of a buffer credit) all apply unchanged.
//
//lint:hotpath
func (ep *Endpoint) Put(m *Message) {
	m.oneSided = true
	ep.Inject(m)
}

// arrive handles a data message reaching this endpoint: serialize ejection,
// then accept or bounce. The eject point is the receiver-side fault hook.
func (ep *Endpoint) arrive(m *Message) {
	eng := ep.eng
	if ep.Fault != nil {
		v := ep.Fault.Eject(eng.Now(), m)
		if v.Drop {
			if ep.Stats != nil {
				ep.Stats.FaultDrops++
			}
			return
		}
		if v.Delay > 0 {
			if ep.Stats != nil {
				ep.Stats.FaultDelays++
			}
			eng.AfterEvent(v.Delay, msgEject, m, 0)
			return
		}
	}
	ep.eject(m)
}

func (ep *Endpoint) eject(m *Message) {
	eng := ep.eng
	start := eng.Now()
	if ep.nextEjectAt > start {
		start = ep.nextEjectAt
	}
	done := start + ep.net.serialization(m.Size())
	ep.nextEjectAt = done
	if m.oneSided {
		eng.AtEvent(done, msgOneSided, m, 0)
		return
	}
	eng.AtEvent(done, msgDecide, m, 0)
}

// oneSidedDeliver lands a put frame: no admission gate, no flow-control
// buffer, no bounce path — after the checksum gate the bytes are in their
// pre-negotiated destination and only the OnPut bookkeeping hook runs. The
// ack (reliable networks only) settles the sender's retransmission state
// through OnSettled rather than freeing an outgoing buffer, since Put never
// held one.
func (ep *Endpoint) oneSidedDeliver(m *Message) {
	ep.activity++
	eng := ep.eng
	reliable := ep.net.cfg.Reliability.Enabled
	if reliable && !m.ChecksumOK() {
		// Corruption detected: discard; the sender's timer retransmits.
		if ep.Stats != nil {
			ep.Stats.CorruptDropped++
		}
		return
	}
	m.ArriveTime = eng.Now()
	ep.delivered++
	if reliable && !ep.dropControl(AckControl, m) {
		ep.post(m.Src, eng.Now()+ep.net.cfg.Latency, msgAcked, m.origin(), 0)
	}
	if ep.OnPut == nil {
		panic(fmt.Sprintf("netsim: endpoint %d received a put frame with no OnPut", ep.id))
	}
	ep.OnPut(m)
}

// dropControl asks this endpoint's fault plane whether the ack/bounce it
// is about to emit for m is destroyed in flight.
func (ep *Endpoint) dropControl(kind ControlKind, m *Message) bool {
	if ep.Fault == nil || !ep.Fault.DropControl(ep.eng.Now(), kind, m) {
		return false
	}
	if ep.Stats != nil {
		ep.Stats.CtlDrops++
	}
	return true
}

// AdmitDecision is an admission-control verdict for one arriving message
// (see Endpoint.Admit). The zero value accepts.
//
//lint:enum
type AdmitDecision int

const (
	// AdmitAccept admits the message into an incoming flow-control buffer
	// (space permitting — a full endpoint still bounces).
	AdmitAccept AdmitDecision = iota
	// AdmitBounce returns the message to its sender on the guaranteed second
	// network, regardless of free buffer space.
	AdmitBounce
	// AdmitDrop destroys the message at the receiver. Under the reliability
	// layer the sender's retransmission timer (and ultimately its deadline or
	// attempt budget) recovers or abandons the send; without it the loss is
	// permanent, as for a fault-plane drop.
	AdmitDrop
)

func (ep *Endpoint) decide(m *Message) {
	ep.activity++
	eng := ep.eng
	src := ep.net.eps[m.Src]
	reliable := ep.net.cfg.Reliability.Enabled
	if reliable && !m.ChecksumOK() {
		// Corruption detected: discard silently; the sender's
		// retransmission timer recovers the message.
		if ep.Stats != nil {
			ep.Stats.CorruptDropped++
		}
		return
	}
	if ep.Admit != nil {
		switch ep.Admit(m) { //lint:allow exhaustive AdmitAccept falls through to the normal delivery path below the switch
		case AdmitDrop:
			if ep.Stats != nil {
				ep.Stats.AdmitDrops++
			}
			return
		case AdmitBounce:
			if ep.Stats != nil {
				ep.Stats.AdmitBounces++
			}
			if ep.dropControl(BounceControl, m) {
				return
			}
			ep.post(m.Src, eng.Now()+ep.net.cfg.Latency+ep.net.serialization(m.Size()), msgBounced, m.origin(), 0)
			return
		}
	}
	if ep.inFree > 0 {
		ep.inFree--
		m.ArriveTime = eng.Now()
		ep.delivered++
		// Acknowledgment returns on the (uncongested) control network. The
		// reply settles the sender-owned original (== m except for a
		// cross-shard transit copy) on the sender's shard.
		if !ep.dropControl(AckControl, m) {
			if reliable {
				ep.post(m.Src, eng.Now()+ep.net.cfg.Latency, msgAcked, m.origin(), 0)
			} else {
				ep.post(m.Src, eng.Now()+ep.net.cfg.Latency, epReleaseOut, src, 0)
			}
		}
		if ep.OnAccept == nil {
			panic(fmt.Sprintf("netsim: endpoint %d has no OnAccept", ep.id))
		}
		ep.OnAccept(m)
		return
	}
	// Bounce: return to sender on the guaranteed second network.
	if ep.dropControl(BounceControl, m) {
		return
	}
	ep.post(m.Src, eng.Now()+ep.net.cfg.Latency+ep.net.serialization(m.Size()), msgBounced, m.origin(), 0)
}

func (ep *Endpoint) bounced(m *Message) {
	reliable := ep.net.cfg.Reliability.Enabled
	if reliable {
		t, ok := ep.inflight[m]
		if !ok {
			// Already acked (a duplicated copy bounced after the original
			// was accepted) or abandoned: the send is settled, drop it.
			return
		}
		// A bounce is positive evidence the message was not lost — the
		// receiver returned it intact. Stop the retransmission timer
		// (the retry path re-arms it at re-injection, so the dead timer
		// never churns the heap) and reset the retransmission budget so
		// flow-control contention never counts toward MaxAttempts.
		t.Stop()
		m.retx = 0
		// The deadline does bound bounce retries: it is what keeps a bounce
		// storm (an overloaded or admission-refusing receiver returning
		// every attempt) from spinning the sender forever.
		if m.deadline > 0 && ep.eng.Now() >= m.deadline {
			if ep.Stats != nil {
				ep.Stats.Bounces++
			}
			ep.abandon(m, ReasonDeadline)
			return
		}
	}
	if ep.Stats != nil {
		ep.Stats.Bounces++
	}
	if ep.OnBounce != nil {
		ep.OnBounce(m)
		return
	}
	var d sim.Time
	if reliable {
		// Capped exponential backoff: under overload, repeated bounces thin
		// the retry traffic out instead of stacking a linear ramp of
		// re-injections onto an already saturated receiver.
		d = ep.net.cfg.RetryBase
		for i := 1; i < int(m.attempts) && d < ep.net.cfg.RetryCap; i++ {
			d <<= 1
		}
	} else {
		// The paper's lossless protocol backs off linearly (§5.1.2);
		// unchanged so the baseline results stay bit-identical.
		d = ep.net.cfg.RetryBase * sim.Time(m.attempts)
	}
	if d > ep.net.cfg.RetryCap {
		d = ep.net.cfg.RetryCap
	}
	ep.eng.AfterEvent(d, msgRetryInject, m, 0)
}

// ReleaseIn frees one incoming flow-control buffer; the NI calls it when it
// has moved an accepted message out of the buffer (into NI memory, main
// memory, or the processor).
//
//lint:hotpath
func (ep *Endpoint) ReleaseIn() {
	ep.inFree++
	if ep.inFree > ep.bufs {
		panic("netsim: ReleaseIn without matching accept")
	}
}

// SwitchBuffer describes a commercial switch/router's internal buffering
// (paper Table 1) — the motivation for NI-side buffering: switches cannot
// hold much.
type SwitchBuffer struct {
	Name      string
	Buffering string
}

// SwitchBufferTable reproduces paper Table 1.
func SwitchBufferTable() []SwitchBuffer {
	return []SwitchBuffer{
		{"Cray T3E router", "105 bytes per non-adaptive virtual channel"},
		{"IBM Vulcan switch (SP2)", "31 bytes + 1 Kbyte buffer pool shared between four ports"},
		{"Myricom M2M switch", "20 bytes"},
		{"SGI Spider/Craylink switch", "256 bytes per virtual channel"},
		{"TMC CM-5 network router", "100 bytes"},
	}
}
