// Package msglayer is the Tempest-like active-message layer every
// application in the study runs on. It adds, on top of the raw NI models,
// the software costs the paper's "process-to-process" numbers include:
// per-message dispatch and header handling, fragmentation of application
// messages to the 256-byte network maximum and reassembly on the far side,
// and the poll-while-blocked discipline that prevents fetch deadlock when
// buffering runs out (§3.2).
package msglayer

import (
	"fmt"

	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// ReservedHandlerBase is the first handler id reserved for runtime-internal
// protocols (barriers); application handlers must stay below it.
const ReservedHandlerBase = 200

// Handler is an active-message handler, executed on the receiving
// processor when a complete application message has arrived. Handlers run
// in the receiver's process context and may send messages themselves.
//
// The handler borrows m and its Payload until it returns: both belong to
// the endpoint's reassembly record, which is reused for a later message.
// A handler that keeps anything past its return copies it.
type Handler func(ep *Endpoint, m *Message)

// Message is a reassembled application-level message as delivered to a
// handler, lent to it for the handler's duration (see Handler).
type Message struct {
	Src, Dst   int
	Handler    int
	Arg        uint64
	Payload    []byte // nil unless the sender attached real bytes
	PayloadLen int
	// SendTime is when the sender entered Send; ArriveTime is when the last
	// fragment was handed to the messaging layer at the receiver.
	SendTime, ArriveTime sim.Time
}

// Size returns the application-level message size (payload + one 8-byte
// header), the quantity Table 4 histograms.
func (m *Message) Size() int { return m.PayloadLen + netsim.HeaderBytes }

// Config holds the messaging-layer software costs, in processor cycles.
// They model the Tempest active-message implementation: building and
// decoding headers, handler table lookup, and bookkeeping.
type Config struct {
	SendCycles int64 // per application message, send side
	RecvCycles int64 // per application message, dispatch side
	FragCycles int64 // per additional fragment, each side
	// RdvCtlCycles is the cost of composing or decoding one rendezvous
	// control message (RTS or CTS) — lighter than full message dispatch,
	// which the handshake exists to avoid.
	RdvCtlCycles int64
	// SpinWait is the re-check interval while blocked waiting for send
	// resources.
	SpinWait sim.Time
	// Protocol selects the transfer protocol (rendezvous.go). The zero
	// value, Eager, is the study's baseline and leaves every path below
	// byte-identical to a build without the protocol seam.
	Protocol ProtocolKind
	// RendezvousThreshold is the payload size (bytes) at or above which
	// Rendezvous switches from eager transfer to the handshake; zero means
	// DefaultRendezvousThreshold. Ignored under Eager.
	RendezvousThreshold int
}

// DefaultConfig returns costs calibrated so the Table 5 microbenchmarks
// land in the paper's reported ranges.
func DefaultConfig() Config {
	return Config{
		SendCycles:   150,
		RecvCycles:   250,
		FragCycles:   40,
		RdvCtlCycles: 60,
		SpinWait:     100 * sim.Nanosecond,
	}
}

// fragment-header encoding in netsim.Message.Arg:
// bits 0..15  fragment index
// bits 16..31 fragment count
// bits 32..55 per-sender message sequence number
// The application's own Arg rides in the first fragment's Channel field.
func fragArg(idx, total int, seq uint64) uint64 {
	return uint64(idx) | uint64(total)<<16 | (seq&0xFFFFFF)<<32
}

func fragIdx(a uint64) int    { return int(a & 0xFFFF) }
func fragTotal(a uint64) int  { return int(a >> 16 & 0xFFFF) }
func fragSeq(a uint64) uint64 { return a >> 32 & 0xFFFFFF }

// inbound is one message being reassembled, by either protocol: eager
// fragments from the receive queue, keyed eagerKey(src, seq), or rendezvous
// put frames from the put sink, keyed rdvKey(src, xfer). Records recycle
// through the endpoint's free list once their handler returns.
type inbound struct {
	key      msgKey
	m        Message // PayloadLen accumulates as fragments land
	buf      []byte  // payload store, kept across reuses of the record
	got      []bool  // fragment indexes already placed (duplicate suppression)
	received int
	// next links the record on the endpoint's free list, or, while a
	// completed rendezvous transfer waits for dispatch, on the
	// protocol's completion queue.
	next *inbound
}

// msgKey names a message at its receiver, for either protocol, in one
// word: the sender's node id shifted above keySrcShift, and below it the
// eager sequence number or the rendezvous transfer id with rdvTag set. The
// low part is always below 1<<keySrcShift, so distinct (src, low) pairs
// with src below 1<<31 never share a key.
type msgKey uint64

// keySrcShift is where a msgKey's sender id starts: above rdvTag.
const keySrcShift = 33

// rdvTag marks a rendezvous key. Eager sequence numbers are 24 bits and
// rendezvous transfer ids 16, so tagged transfer ids never equal a
// sequence number: the two protocols share one inbound table and one done
// set without one's keys masking the other's.
const rdvTag = 1 << 32

// eagerKey is the inbound and done-set key of eager message seq from src.
func eagerKey(src int, seq uint64) msgKey {
	return msgKey(uint64(src)<<keySrcShift | seq)
}

// rdvKey is the inbound and done-set key of rendezvous transfer xfer from
// src.
func rdvKey(src int, xfer uint32) msgKey {
	return msgKey(uint64(src)<<keySrcShift | uint64(xfer) | rdvTag)
}

// doneSet remembers the last depth completed keys, so late duplicates of a
// finished message (retransmissions whose ack was lost, network-duplicated
// copies, stale rendezvous requests) are suppressed rather than reassembled
// into a phantom message. Keys are monotonic per sender, so a set thousands
// deep outlasts any duplicate the network can still deliver.
type doneSet struct {
	depth int
	keys  map[msgKey]struct{}
	ring  []msgKey // eviction order
	head  int
}

// doneWindow is the done set's depth, shared by both protocols.
const doneWindow = 1 << 13

func newDoneSet(depth int) doneSet {
	return doneSet{depth: depth, keys: make(map[msgKey]struct{})}
}

func (d *doneSet) has(key msgKey) bool {
	_, ok := d.keys[key]
	return ok
}

func (d *doneSet) add(key msgKey) {
	d.keys[key] = struct{}{} //lint:allow noalloc done set is bounded by its depth; past it the paired delete frees a bucket for every insert
	if len(d.ring) < d.depth {
		d.ring = append(d.ring, key) //lint:allow noalloc eviction ring grows once to its depth, then recycles slots in place
		return
	}
	delete(d.keys, d.ring[d.head])
	d.ring[d.head] = key
	d.head = (d.head + 1) % d.depth
}

// Endpoint is one node's messaging-layer endpoint.
type Endpoint struct {
	pr       *proc.Proc
	ni       nic.NI
	net      *netsim.Endpoint // the node's network endpoint, owner of the frame free list
	cfg      Config
	maxFrag  int // max payload bytes per network message
	handlers map[int]Handler
	seq      uint64
	in       map[msgKey]*inbound // messages being reassembled, both protocols
	done     doneSet             // completed keys, both protocols
	free     *inbound            // recycled reassembly records

	// rdv is the rendezvous protocol state, nil unless the Config selects
	// Rendezvous AND the NI exposes an RDMA engine. Every receive path
	// checks it: one-sided completions never enter the NI's receive queue,
	// so only the protocol layer can deliver them.
	rdv *rendezvous

	// Delivered counts application messages dispatched to handlers.
	Delivered int64
	// Spins counts the SpinWait sleeps taken while blocked on send
	// resources or on a rendezvous grant.
	Spins int64

	// The endpoint's call in event context (see send): the send in
	// progress, the receive that ended, and the messaging layer's own
	// software in progress (work): its category, its continuation and its
	// start, which is also a blocked send's SpinWait sleep's. retried
	// reports that PollOne's unsuccessful poll re-pushed a message.
	out      sendCall
	rcv      recvCall
	workThen sim.Handler
	since    sim.Time
	workCat  int8
	retried  bool
}

// New creates the endpoint for a node whose NI is attached to the network
// through net.
func New(pr *proc.Proc, ni nic.NI, net *netsim.Endpoint, cfg Config) *Endpoint {
	if cfg.Protocol < 0 || cfg.Protocol >= numProtocolKinds {
		panic(fmt.Sprintf("msglayer: unknown protocol %d", int(cfg.Protocol)))
	}
	ep := &Endpoint{
		pr:       pr,
		ni:       ni,
		net:      net,
		cfg:      cfg,
		maxFrag:  net.MaxNetMsg() - netsim.HeaderBytes,
		handlers: make(map[int]Handler),
		in:       make(map[msgKey]*inbound),
		done:     newDoneSet(doneWindow),
	}
	if cfg.Protocol == Rendezvous {
		// Degrades to nil — purely eager — on NIs without an RDMA engine,
		// so a protocol sweep can run the whole design grid.
		ep.rdv = newRendezvous(ep)
	}
	return ep
}

// Protocol reports the transfer protocol actually in effect: Rendezvous
// only when the Config asked for it and the NI could provide it.
func (ep *Endpoint) Protocol() ProtocolKind {
	if ep.rdv != nil {
		return Rendezvous
	}
	return Eager
}

// Proc returns the node's processor context.
func (ep *Endpoint) Proc() *proc.Proc { return ep.pr }

// NI returns the underlying network interface.
func (ep *Endpoint) NI() nic.NI { return ep.ni }

// NodeID returns this endpoint's node number.
func (ep *Endpoint) NodeID() int { return ep.pr.ID }

// Register installs the handler for id. Registering twice panics: handler
// tables are set up once at program start.
func (ep *Endpoint) Register(id int, h Handler) {
	if _, dup := ep.handlers[id]; dup {
		panic(fmt.Sprintf("msglayer: handler %d registered twice on node %d", id, ep.pr.ID))
	}
	ep.handlers[id] = h
}

// Send transmits an application message of payloadLen bytes to handler on
// dst, fragmenting as needed. It blocks the processor for the NI's
// processor-side send work; while waiting for send resources it polls and
// dispatches incoming messages (deadlock avoidance).
func (ep *Endpoint) Send(dst, handler, payloadLen int, arg uint64) {
	ep.send(dst, handler, nil, payloadLen, arg)
}

// SendBytes is Send carrying real payload bytes end to end.
func (ep *Endpoint) SendBytes(dst, handler int, payload []byte, arg uint64) {
	ep.send(dst, handler, payload, len(payload), arg)
}

func (ep *Endpoint) send(dst, handler int, payload []byte, payloadLen int, arg uint64) {
	if dst == ep.pr.ID {
		panic(fmt.Sprintf("msglayer: node %d sending to itself", dst))
	}
	if ep.rdv != nil && payloadLen >= ep.rdv.threshold {
		ep.rdv.send(dst, handler, payload, payloadLen, arg)
		return
	}
	ep.seq++
	total := ep.frags(payloadLen)
	frags := make([]netsim.Message, total)
	for i := range frags {
		lo := i * ep.maxFrag
		hi := min(lo+ep.maxFrag, payloadLen)
		nm := &frags[i]
		nm.Src, nm.Dst, nm.Handler = ep.pr.ID, dst, handler
		nm.PayloadLen = hi - lo
		nm.Arg = fragArg(i, total, ep.seq)
		if payload != nil {
			nm.Payload = payload[lo:hi]
		}
	}
	frags[0].Channel = int(arg)
	ep.out = sendCall{frags: frags}
	ep.work(stats.Transfer, ep.cfg.SendCycles, sendCounted)
	ep.finishSend()
}

// frags is the number of network messages a payload of n bytes takes.
func (ep *Endpoint) frags(n int) int {
	return max(1, (n+ep.maxFrag-1)/ep.maxFrag)
}

// countSend charges and counts one application message on the send side
// in process context, for the rendezvous protocol, and returns its
// SendTime stamp.
func (ep *Endpoint) countSend(handler, payloadLen int) sim.Time {
	ep.pr.Work(stats.Transfer, ep.cfg.SendCycles)
	ep.recordSend(handler, payloadLen)
	return ep.pr.P.Now()
}

// recordSend counts one application message on the send side, the same
// for both protocols, once its SendCycles are charged. Table 4 histograms
// application messages only, not runtime-internal traffic such as
// barriers.
func (ep *Endpoint) recordSend(handler, payloadLen int) {
	ep.pr.Stats.MessagesSent++
	ep.pr.Stats.BytesSent += int64(payloadLen + netsim.HeaderBytes)
	if handler < ReservedHandlerBase {
		ep.pr.Stats.RecordMessageSize(payloadLen + netsim.HeaderBytes)
	}
}

// push hands one prepared network message to the NI in process context,
// polling while blocked until the NI can take it, as an eager send pushes
// each fragment: the rendezvous protocol's control messages.
func (ep *Endpoint) push(nm *netsim.Message) {
	ep.out = sendCall{nm: nm}
	ep.check()
	ep.finishSend()
}

// arrived reports whether PollOne would dispatch something now: a
// completed rendezvous transfer or a fragment the NI holds.
func (ep *Endpoint) arrived() bool {
	return ep.rdv != nil && ep.rdv.compHead != nil || ep.ni.Pending()
}

// An endpoint runs its calls in event context while the process stays
// parked, uncharged (proc.Proc.Park): an eager send from its SendCycles to
// its last fragment's NI send, including the poll-while-blocked loop of a
// send that must wait, and a receive from the NI's receive to the
// dispatch's RecvCycles. Each piece runs where the process would have run
// it, and each sleep keeps the event key the process's sleep had (work),
// so the events are those of the process steps. The process resumes only
// where software must run: at the call's end, to run a handler or
// re-check a WaitUntil predicate, or to dispatch an arrival during a
// blocked send (pollOrSpin). So a Send parks once and a receive once per
// fragment. The processor makes one call at a time: a send that resumes
// its process mid-way waits on the process's stack while the handler's
// calls use the endpoint's record (finishSend), so one record serves
// every level.
//
// sendCall is the send in progress: the fragments of an eager message
// (built before the send starts, by the process), the fragment being
// pushed and its index, and whether the send resumed its process for an
// arrival. A rendezvous control message is a lone fragment (nm) without
// frags.
type sendCall struct {
	frags   []netsim.Message
	nm      *netsim.Message
	i       int32
	arrival bool
}

// recvCall is the receive that ended: the fragment, and the completed
// message whose handler the process runs.
type recvCall struct {
	nm *netsim.Message
	in *inbound
}

// work runs n cycles of the messaging layer's software charged to
// category in event context: a sleep in the slot proc.Proc.Work's sleep
// takes, whose end (worked) runs then(ep, 0) where the process would
// resume from it.
//
//lint:hotpath
func (ep *Endpoint) work(category int, n int64, then sim.Handler) {
	d := ep.pr.CPU.Cycles(n)
	if d == 0 {
		then(ep, 0)
		return
	}
	ep.workCat, ep.workThen, ep.since = int8(category), then, ep.pr.Eng.Now()
	ep.pr.Eng.AfterEvent(d, worked, ep, 0)
}

// worked ends the messaging layer's software, charging it.
//
//lint:hotpath
func worked(recv any, _ uint64) {
	ep := recv.(*Endpoint)
	p := ep.pr.P
	if p.Done() {
		return
	}
	p.Charge(int(ep.workCat), ep.since)
	then := ep.workThen
	ep.workThen = nil
	then(ep, 0)
}

// finishSend parks the process until the send chain ends. The chain
// resumes it early only for an arrival during a blocked send: a handler
// is software, so the process polls it itself (pollOrSpin, which sleeps
// one SpinWait when an overload eviction took the arrival during the head
// read), and the chain goes on from its check. The handler may send; the
// blocked send's state waits on the process's stack meanwhile.
func (ep *Endpoint) finishSend() {
	for {
		ep.pr.Park()
		if !ep.out.arrival {
			ep.out = sendCall{}
			return
		}
		s := ep.out
		s.arrival = false
		ep.pollOrSpin()
		ep.out = s
		ep.check()
	}
}

// sendCounted ends the SendCycles: the message is counted and its
// fragments stamped, and the first goes.
//
//lint:hotpath
func sendCounted(recv any, _ uint64) {
	ep := recv.(*Endpoint)
	frags, now, n := ep.out.frags, ep.pr.Eng.Now(), 0
	for i := range frags {
		frags[i].SendTime = now
		n += frags[i].PayloadLen
	}
	ep.recordSend(frags[0].Handler, n)
	ep.frag()
}

// frag pushes the next fragment after its FragCycles, or ends the send
// after the last.
//
//lint:hotpath
func (ep *Endpoint) frag() {
	s := &ep.out
	if int(s.i) == len(s.frags) {
		ep.pr.Return()
		return
	}
	s.nm = &s.frags[s.i]
	ep.pr.Stats.FragmentsSent++
	if s.i > 0 {
		ep.work(stats.Transfer, ep.cfg.FragCycles, fragReady)
		return
	}
	ep.check()
}

// fragReady ends a fragment's FragCycles.
//
//lint:hotpath
func fragReady(recv any, _ uint64) { recv.(*Endpoint).check() }

// check is push's test, where the process would make it: the fragment
// goes when the NI can take it; otherwise an arrival resumes the process
// to dispatch it, and without one the send blocks: it polls without
// success (nic.NI.PollMiss, which also re-pushes a returned message the
// NI needs software for), sleeps one SpinWait unless it re-pushed, and
// checks again.
//
//lint:hotpath
func (ep *Endpoint) check() {
	switch {
	case ep.ni.CanSend(ep.out.nm):
		ep.ni.Send(ep.pr, ep.out.nm, fragSent, ep)
	case ep.arrived():
		ep.out.arrival = true
		ep.pr.Return()
	default:
		ep.ni.PollMiss(ep.pr, blockedPolled, ep)
	}
}

// fragSent ends a fragment's NI send: the next fragment goes, or a lone
// one's send is over.
//
//lint:hotpath
func fragSent(recv any, _ uint64) {
	ep := recv.(*Endpoint)
	ep.out.nm = nil
	if ep.out.frags == nil {
		ep.pr.Return()
		return
	}
	ep.out.i++
	ep.frag()
}

// blockedPolled ends one unsuccessful poll of a blocked send, where the
// process would resume from it: after a re-push the send checks again at
// once, otherwise it sleeps one SpinWait, charged to Buffering.
//
//lint:hotpath
func blockedPolled(recv any, retried uint64) {
	ep := recv.(*Endpoint)
	if retried != 0 {
		ep.check()
		return
	}
	ep.Spins++
	if ep.cfg.SpinWait == 0 {
		ep.check()
		return
	}
	ep.since = ep.pr.Eng.Now()
	ep.pr.Eng.AfterEvent(ep.cfg.SpinWait, blockedSlept, ep, 0)
}

// blockedSlept ends a SpinWait sleep.
//
//lint:hotpath
func blockedSlept(recv any, _ uint64) {
	ep := recv.(*Endpoint)
	p := ep.pr.P
	if p.Done() {
		return
	}
	p.Charge(stats.Buffering, ep.since)
	ep.check()
}

// pollOrSpin is one step of poll-while-blocked in process context, for
// the rendezvous waits and for an arrival: process one arrival, or sleep
// one spin interval when there is none. Reports whether it processed one.
func (ep *Endpoint) pollOrSpin() bool {
	if ep.PollOne() {
		return true
	}
	ep.Spins++
	ep.pr.P.SleepAs(stats.Buffering, ep.cfg.SpinWait)
	return false
}

// PollOne polls the NI once; if a fragment is available it is received and,
// when it completes an application message, the handler runs. Otherwise
// the poll is unsuccessful and re-pushes one returned-to-sender message if
// the NI needs the processor for that (fifo NIs, Table 2). Reports whether
// a fragment was processed or a message re-pushed.
func (ep *Endpoint) PollOne() bool {
	if ep.rdv != nil && ep.rdv.deliverOne() {
		return true
	}
	if !ep.ni.Pending() {
		ep.ni.PollMiss(ep.pr, polledOne, ep)
		ep.pr.Park()
		return ep.retried
	}
	ep.ni.Poll(ep.pr, fragReceived, ep)
	return ep.finishRecv()
}

// polledOne ends PollOne's unsuccessful poll where the process resumes.
//
//lint:hotpath
func polledOne(recv any, retried uint64) {
	ep := recv.(*Endpoint)
	ep.retried = retried != 0
	ep.pr.Return()
}

// waitOne blocks until a fragment arrives, then processes it. A rendezvous
// endpoint cannot park in the NI's blocking receive: one-sided completions
// bypass the receive queue, so a blocked receive would sleep through them.
// It polls both planes instead.
func (ep *Endpoint) waitOne() {
	if ep.rdv != nil {
		for !ep.pollOrSpin() {
		}
		return
	}
	ep.ni.Recv(ep.pr, fragReceived, ep)
	ep.finishRecv()
}

// fragReceived ends the NI's receive of a fragment, where the process
// would resume from it: the fragment is integrated, and when it completes
// a message, the dispatch's software runs (dispatched). The process
// resumes after that, to run the handler, or at once, to re-check its
// predicate. A rendezvous endpoint integrates in process context (its
// control messages run protocol software).
//
//lint:hotpath
func fragReceived(recv any, nm *netsim.Message) {
	ep := recv.(*Endpoint)
	ep.rcv.nm = nm
	if nm == nil || ep.rdv != nil {
		ep.pr.Return()
		return
	}
	in := ep.integrate(nm)
	if in == nil {
		ep.pr.Return()
		return
	}
	ep.rcv.in = in
	ep.done.add(in.key)
	ep.work(stats.Transfer, ep.count(in), dispatched)
}

// dispatched ends a dispatch's software: the process runs the handler.
//
//lint:hotpath
func dispatched(recv any, _ uint64) { recv.(*Endpoint).pr.Return() }

// finishRecv parks the process until the receive chain ends, then runs
// the handler of the message it completed, or, on a rendezvous endpoint,
// integrates the fragment. It reports whether a fragment was received: a
// poll's eviction during the head read takes it.
func (ep *Endpoint) finishRecv() bool {
	ep.pr.Park()
	r := ep.rcv
	ep.rcv = recvCall{}
	switch {
	case r.nm == nil:
		return false
	case ep.rdv != nil:
		ep.accept(r.nm)
	case r.in != nil:
		ep.handle(r.in)
	}
	return true
}

// WaitUntil polls (blocking between arrivals) until pred is true. It is the
// receive loop request-response protocols use: pred typically checks a flag
// a reply handler sets.
func (ep *Endpoint) WaitUntil(pred func() bool) {
	for !pred() {
		ep.waitOne()
	}
}

// Drain processes all fragments the NI currently holds, plus any completed
// rendezvous transfers awaiting dispatch.
func (ep *Endpoint) Drain() {
	if ep.rdv != nil {
		for ep.rdv.deliverOne() {
		}
	}
	for ep.ni.Pending() {
		ep.PollOne()
	}
}

// accept integrates one network fragment in process context, dispatching
// the handler when the application message is complete: a rendezvous
// endpoint's receive.
func (ep *Endpoint) accept(nm *netsim.Message) {
	if ep.rdv != nil {
		switch nm.Handler {
		case hRTS:
			ep.rdv.onRTS(nm)
			return
		case hCTS:
			ep.rdv.onCTS(nm)
			return
		}
	}
	if in := ep.integrate(nm); in != nil {
		ep.deliver(in)
	}
}

// integrate places one eager fragment into its message's record and
// returns the record once the message is complete, taken out of the
// inbound table and stamped with its arrival. Duplicates of completed
// messages are suppressed by the done set, duplicate fragments by the
// record's bitmap.
func (ep *Endpoint) integrate(nm *netsim.Message) *inbound {
	key := eagerKey(nm.Src, fragSeq(nm.Arg))
	if ep.done.has(key) {
		ep.pr.Stats.DupSuppressed++
		return nil
	}
	idx, total := fragIdx(nm.Arg), fragTotal(nm.Arg)
	in := ep.in[key]
	if in == nil {
		in = ep.newInbound(key, total, Message{Src: nm.Src, Dst: ep.pr.ID, Handler: nm.Handler, SendTime: nm.SendTime})
	}
	if !ep.place(in, idx, total, nm) {
		return nil
	}
	if idx == 0 {
		in.m.Arg = uint64(nm.Channel)
	}
	if in.received < total {
		return nil
	}
	delete(ep.in, key)
	in.m.ArriveTime = ep.pr.Eng.Now()
	return in
}

// deliver finishes a completed message in process context, for either
// protocol: its key joins the done set, the dispatch's software runs, and
// then the handler (handle). Receives nested inside the handler use other
// records.
func (ep *Endpoint) deliver(in *inbound) {
	ep.done.add(in.key)
	ep.pr.Work(stats.Transfer, ep.count(in))
	ep.handle(in)
}

// place integrates fragment idx of a total-fragment message into in,
// copying any payload bytes to their offset (fragments can arrive out of
// order after a bounce). A duplicate fragment is counted and reported
// false.
func (ep *Endpoint) place(in *inbound, idx, total int, nm *netsim.Message) bool {
	if total != len(in.got) || idx >= total {
		panic(fmt.Sprintf("msglayer: node %d fragment %d/%d does not match its message (%d fragments)",
			ep.pr.ID, idx, total, len(in.got)))
	}
	if in.got[idx] {
		ep.pr.Stats.DupSuppressed++
		return false
	}
	in.got[idx] = true
	if nm.Payload != nil {
		if in.m.Payload == nil {
			need := total * ep.maxFrag
			if cap(in.buf) < need {
				in.buf = make([]byte, need) //lint:allow noalloc payload store grows to the largest message seen, then recycles with its record
			}
			in.m.Payload = in.buf[:need]
		}
		copy(in.m.Payload[idx*ep.maxFrag:], nm.Payload)
	}
	in.m.PayloadLen += nm.PayloadLen
	in.received++
	return true
}

// count counts a completed message's receive and returns the cycles of
// its dispatch: the per-message receive cost plus the per-fragment cost
// of every fragment past the first. The handler sees exactly PayloadLen
// payload bytes.
func (ep *Endpoint) count(in *inbound) int64 {
	m := &in.m
	if m.Payload != nil {
		m.Payload = m.Payload[:m.PayloadLen]
	}
	ep.pr.Stats.MessagesReceived++
	ep.pr.Stats.BytesReceived += int64(m.PayloadLen + netsim.HeaderBytes)
	return ep.cfg.RecvCycles + ep.cfg.FragCycles*int64(len(in.got)-1)
}

// handle runs the handler of a dispatched message on the record's own
// Message, and recycles the record once the handler returns.
func (ep *Endpoint) handle(in *inbound) {
	h := ep.handlers[in.m.Handler]
	if h == nil {
		panic(fmt.Sprintf("msglayer: node %d has no handler %d", ep.pr.ID, in.m.Handler))
	}
	ep.Delivered++
	h(ep, &in.m)
	ep.release(in)
}

// newInbound takes a reassembly record from the free list for message m,
// its fragment bitmap sized and cleared for total fragments, and enters it
// in the inbound table under key.
func (ep *Endpoint) newInbound(key msgKey, total int, m Message) *inbound {
	in := ep.free
	if in == nil {
		in = &inbound{} //lint:allow noalloc one record per concurrently reassembling message, recycled through the free list thereafter
	} else {
		ep.free = in.next
		in.next = nil
	}
	in.key, in.m, in.received = key, m, 0
	if cap(in.got) < total {
		in.got = make([]bool, total) //lint:allow noalloc bitmap grows to the largest fragment count seen, then recycles
	} else {
		in.got = in.got[:total]
		clear(in.got)
	}
	ep.in[key] = in //lint:allow noalloc the table holds at most the messages reassembling at once; completed keys free their buckets
	return in
}

// release returns a record to the free list once nothing refers to its
// Message any more.
func (ep *Endpoint) release(in *inbound) {
	in.m = Message{}
	in.next = ep.free
	ep.free = in
}
