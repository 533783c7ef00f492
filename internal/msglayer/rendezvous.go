// Rendezvous protocol: the messaging layer's second transfer protocol,
// layered over the RDMA engine's one-sided puts. Eager transfer (msglayer.go's
// path, the paper's baseline) pushes every fragment through the receiver's
// buffering layer and charges the receiving processor per fragment. For
// large messages that is exactly the traffic admission control evicts and
// limited buffering bounces, so the rendezvous protocol first agrees on the
// transfer (RTS/CTS handshake, two header-only control messages in the
// reserved handler range), then moves the payload with a one-sided put that
// lands directly in the receiver's reassembly buffer: it never enters the
// receive queue, can neither bounce nor be admission-evicted, and costs the
// receiving processor nothing until the completed message is dispatched.
package msglayer

import (
	"fmt"

	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// ProtocolKind selects the messaging layer's transfer protocol.
//
//lint:enum
type ProtocolKind int

const (
	// Eager pushes fragments through the receiver's buffering layer
	// unconditionally — the study's baseline behavior.
	Eager ProtocolKind = iota
	// Rendezvous switches messages at or above the size threshold to an
	// RTS/CTS handshake followed by a one-sided put, when the NI has an
	// RDMA engine. Smaller messages (and every message on an NI without
	// one) still go eagerly.
	Rendezvous

	numProtocolKinds // bound sentinel, not a protocol
)

func (p ProtocolKind) String() string {
	switch p {
	case Eager:
		return "eager"
	case Rendezvous:
		return "rendezvous"
	default:
		panic(fmt.Sprintf("msglayer: unknown ProtocolKind %d", int(p)))
	}
}

// DefaultRendezvousThreshold is the payload size at which Rendezvous stops
// sending eagerly when Config.RendezvousThreshold is zero: four fragments'
// worth, past the region where the handshake's extra round trip dominates.
const DefaultRendezvousThreshold = 1024

// Runtime-internal handler ids for the rendezvous protocol, in the
// reserved range so overload policies with ControlBase set admit them
// unconditionally (refusing a CTS under load would deadlock the sender the
// handshake exists to protect).
const (
	hRTS = ReservedHandlerBase + 20 // request to send: xfer id, size, target handler
	hCTS = ReservedHandlerBase + 21 // clear to send: echoes the xfer id
	// hPutData tags one-sided payload frames. They are never dispatched
	// through a handler table — the network routes them to the RDMA
	// engine's put sink — but a recognizable id keeps traces readable.
	hPutData = ReservedHandlerBase + 22
)

// RTS argument encoding in netsim.Message.Arg:
// bits 0..15  transfer id (matches the put frames' PutFrameArg id)
// bits 16..47 payload bytes
// bits 48..63 application handler id
// The application's own 64-bit Arg rides in the RTS's Channel field, the
// same trick the eager path plays with first fragments.
func rtsArg(xfer uint32, bytes, handler int) uint64 {
	return uint64(xfer&0xFFFF) | uint64(bytes)<<16&0xFFFF_FFFF_0000 | uint64(handler)<<48
}

func decodeRTS(a uint64) (xfer uint32, bytes, handler int) {
	return uint32(a & 0xFFFF), int(a >> 16 & 0xFFFF_FFFF), int(a >> 48)
}

// rendezvous is the per-endpoint protocol state, nil unless the Config
// selects Rendezvous and the NI exposes an RDMA engine.
type rendezvous struct {
	ep        *Endpoint
	rd        nic.RDMA
	threshold int

	seq uint32 // rolling 16-bit transfer id
	// out holds this endpoint's handshakes awaiting their CTS, by xfer id:
	// false until the grant arrives. Send blocks until then, so only
	// handler-reentrant sends nest.
	out map[uint32]bool

	// Completed transfers awaiting processor-side dispatch, oldest first,
	// linked through inbound.next. The put sink runs in network-event
	// context where no processor cycles can be charged, so completion is
	// split: the sink queues the record, and deliverOne (called from
	// PollOne/waitOne in process context) charges the dispatch cost and
	// runs the handler.
	compHead, compTail *inbound
}

// newRendezvous wires the protocol to the endpoint's RDMA engine, or
// returns nil (leaving the endpoint purely eager) when the NI has none.
func newRendezvous(ep *Endpoint) *rendezvous {
	rc, ok := ep.ni.(nic.RDMACapable)
	if !ok {
		return nil
	}
	rd := rc.RDMA()
	if rd == nil {
		return nil
	}
	r := &rendezvous{
		ep:        ep,
		rd:        rd,
		threshold: ep.cfg.RendezvousThreshold,
		out:       make(map[uint32]bool),
	}
	if r.threshold <= 0 {
		r.threshold = DefaultRendezvousThreshold
	}
	rd.SetPutSink(r.putSink)
	return r
}

// send runs the full rendezvous transfer: RTS, poll until CTS, one-sided
// put. The application-level accounting (SendCycles, message counters, the
// Table 4 size histogram) matches the eager path exactly — the protocols
// differ in how bytes move, not in what the application did.
//
//lint:hotpath
func (r *rendezvous) send(dst, handler int, payload []byte, payloadLen int, arg uint64) {
	ep := r.ep
	sendTime := ep.countSend(handler, payloadLen)
	r.seq++
	xfer := r.seq & 0xFFFF
	r.out[xfer] = false //lint:allow noalloc outstanding-send map holds at most the concurrent handshake population; completed transfers free buckets

	ep.pr.Work(stats.Transfer, ep.cfg.RdvCtlCycles)
	r.sendCtl(dst, hRTS, int(arg), rtsArg(xfer, payloadLen, handler), sendTime)

	// Poll-while-waiting for the grant: the receiver may be sending to us
	// (or handshaking with us) in the meantime, and a blocked spin here is
	// exactly the fetch deadlock §3.2 warns about.
	for !r.out[xfer] {
		ep.pollOrSpin()
	}
	delete(r.out, xfer)

	// Granted: move the payload one-sidedly. The put bypasses the
	// receiver's buffering layer entirely — frames route to the put sink,
	// not the receive queue, so they can neither bounce nor be evicted.
	for !r.rd.CanPut() {
		ep.pollOrSpin()
	}
	r.rd.Put(ep.pr, nic.PutOp{
		Dst:        dst,
		Handler:    hPutData,
		XferID:     xfer,
		Payload:    payload,
		PayloadLen: payloadLen,
		SendTime:   sendTime,
	})
}

// sendCtl sends one header-only control message (RTS or CTS) in a frame
// from the endpoint's free list; the caller has charged its composition.
//
//lint:hotpath
func (r *rendezvous) sendCtl(dst, handler, channel int, arg uint64, sendTime sim.Time) {
	nm := r.ep.net.TakeFrame()
	nm.Src, nm.Dst, nm.Handler = r.ep.pr.ID, dst, handler
	nm.Channel = channel
	nm.Arg = arg
	nm.SendTime = sendTime
	r.ep.pr.Stats.FragmentsSent++
	r.ep.push(nm)
}

// onRTS grants (or re-grants) a transfer: create the reassembly record and
// reply with a CTS. A duplicate RTS — its CTS lost, or reliability
// retransmitted past a dropped ack — re-grants idempotently; an RTS for an
// already-completed transfer is stale (the sender only ever resends before
// putting) and is suppressed.
//
//lint:hotpath
func (r *rendezvous) onRTS(nm *netsim.Message) {
	ep := r.ep
	ep.pr.Work(stats.Transfer, ep.cfg.RdvCtlCycles)
	xfer, bytes, handler := decodeRTS(nm.Arg)
	key := rdvKey(nm.Src, xfer)
	if ep.done.has(key) {
		ep.pr.Stats.DupSuppressed++
		r.recycleCtl(nm)
		return
	}
	if ep.in[key] == nil {
		ep.newInbound(key, ep.frags(bytes), Message{Src: nm.Src, Dst: ep.pr.ID, Handler: handler, Arg: uint64(nm.Channel), SendTime: nm.SendTime})
	} else {
		ep.pr.Stats.DupSuppressed++
	}
	src := nm.Src
	r.recycleCtl(nm)

	ep.pr.Work(stats.Transfer, ep.cfg.RdvCtlCycles)
	r.sendCtl(src, hCTS, 0, uint64(xfer), ep.pr.P.Now())
}

// onCTS releases the sender blocked in send. A CTS for an unknown transfer
// is a duplicate grant (the first already unblocked us) and is counted,
// not acted on.
//
//lint:hotpath
func (r *rendezvous) onCTS(nm *netsim.Message) {
	r.ep.pr.Work(stats.Transfer, r.ep.cfg.RdvCtlCycles)
	xfer := uint32(nm.Arg & 0xFFFF)
	if _, waiting := r.out[xfer]; waiting {
		r.out[xfer] = true //lint:allow noalloc overwrites a key send inserted; the map does not grow
	} else {
		r.ep.pr.Stats.DupSuppressed++
	}
	r.recycleCtl(nm)
}

// putSink integrates one one-sided payload frame. It runs in network-event
// context — the frame was placed by the NI, not the processor — so it does
// bookkeeping only: placement, duplicate suppression, and completion
// queueing. Frame contents are only valid for the duration of the call
// (an unsealed frame goes back to the receiver's free list right after
// it), so payload bytes are copied into the reassembly record here.
//
//lint:hotpath
func (r *rendezvous) putSink(nm *netsim.Message) {
	xfer, idx, total := nic.DecodePutFrame(nm.Arg)
	in := r.ep.in[rdvKey(nm.Src, xfer)]
	if in == nil {
		// A late duplicate of a completed transfer (reliability retransmit
		// whose ack was lost).
		r.ep.pr.Stats.DupSuppressed++
		return
	}
	if !r.ep.place(in, idx, total, nm) || in.received < total {
		return
	}
	// Last frame: the message has fully arrived. Dispatch cost is the
	// processor's, so completion is handed to deliverOne.
	delete(r.ep.in, in.key)
	in.m.ArriveTime = r.ep.pr.P.Now()
	if r.compTail == nil {
		r.compHead = in
	} else {
		r.compTail.next = in
	}
	r.compTail = in
}

// deliverOne dispatches the oldest completed transfer through the
// endpoint's one delivery step. It runs in process context from
// PollOne/waitOne/Drain. Reports whether a message was delivered.
//
//lint:hotpath
func (r *rendezvous) deliverOne() bool {
	in := r.compHead
	if in == nil {
		return false
	}
	r.compHead = in.next
	if r.compHead == nil {
		r.compTail = nil
	}
	in.next = nil
	r.ep.deliver(in)
	return true
}

// recycleCtl frees a consumed control frame to the endpoint's free list.
// A frame the reliability layer sealed (Seq != 0) still belongs to its
// sender until the ack settles it, so only unsealed frames (unreliable
// runs) recycle; reliable runs pay one frame per control message.
//
//lint:hotpath
func (r *rendezvous) recycleCtl(nm *netsim.Message) {
	if nm.Seq == 0 {
		r.ep.net.FreeFrame(nm)
	}
}
