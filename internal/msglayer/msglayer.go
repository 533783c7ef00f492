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

	// blocked is the blocked send's loop (push).
	blocked blockedSend
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
	ep.blocked.ep = ep
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
	seq := ep.seq
	total := ep.frags(payloadLen)
	sendTime := ep.countSend(handler, payloadLen)
	for i := 0; i < total; i++ {
		lo := i * ep.maxFrag
		hi := min(lo+ep.maxFrag, payloadLen)
		nm := &netsim.Message{
			Src:        ep.pr.ID,
			Dst:        dst,
			Handler:    handler,
			PayloadLen: hi - lo,
			Arg:        fragArg(i, total, seq),
			SendTime:   sendTime,
		}
		if payload != nil {
			nm.Payload = payload[lo:hi]
		}
		if i == 0 {
			nm.Channel = int(arg)
		}
		ep.pr.Stats.FragmentsSent++
		if i > 0 {
			ep.pr.Work(stats.Transfer, ep.cfg.FragCycles)
		}
		ep.push(nm)
	}
}

// frags is the number of network messages a payload of n bytes takes.
func (ep *Endpoint) frags(n int) int {
	return max(1, (n+ep.maxFrag-1)/ep.maxFrag)
}

// countSend charges and counts one application message on the send side,
// the same for both protocols, and returns its SendTime stamp. Table 4
// histograms application messages only, not runtime-internal traffic such
// as barriers.
func (ep *Endpoint) countSend(handler, payloadLen int) sim.Time {
	ep.pr.Work(stats.Transfer, ep.cfg.SendCycles)
	ep.pr.Stats.MessagesSent++
	ep.pr.Stats.BytesSent += int64(payloadLen + netsim.HeaderBytes)
	if handler < ReservedHandlerBase {
		ep.pr.Stats.RecordMessageSize(payloadLen + netsim.HeaderBytes)
	}
	return ep.pr.P.Now()
}

// push hands one network message to the NI, polling while blocked until
// the NI can take it. An arrival waiting to be dispatched is software
// work, so the process polls it itself; the rest of the poll-while-blocked
// loop runs in event context (blockedSend).
func (ep *Endpoint) push(nm *netsim.Message) {
	for !ep.ni.CanSend(nm) {
		if ep.arrived() {
			ep.pollOrSpin()
			continue
		}
		ep.block(nm)
	}
	ep.ni.Send(ep.pr, nm)
}

// arrived reports whether PollOne would dispatch something now: a
// completed rendezvous transfer or a fragment the NI holds.
func (ep *Endpoint) arrived() bool {
	return ep.rdv != nil && ep.rdv.compHead != nil || ep.ni.Pending()
}

// blockedSend is the poll-while-blocked loop of a send that found nothing
// to dispatch, run in event context while the process stays parked
// (sim.Process.ParkUncharged): each turn polls without success
// (nic.NI.PollMiss, which also re-pushes a returned message the NI needs
// software for), sleeps one SpinWait unless it re-pushed, and checks
// again, exactly as pollOrSpin's turns would. The process resumes, in the
// slot where it would check, only once nm can go or an arrival waits to
// be dispatched. A handler the process then runs may send and block
// again; that loop starts only after this one has resumed the process, so
// one record per endpoint serves both, held in the Endpoint. PollOne's
// unsuccessful poll parks the process on the same record (pollMiss).
type blockedSend struct {
	ep      *Endpoint
	nm      *netsim.Message
	since   sim.Time // the SpinWait sleep's start
	parked  bool     // the process has parked; until then it is the caller
	ready   bool     // the loop ended before the process parked
	retried bool     // PollOne's poll re-pushed a returned message
}

// block runs the loop until nm can go or an arrival waits.
func (ep *Endpoint) block(nm *netsim.Message) {
	b := &ep.blocked
	b.nm, b.ready = nm, false
	ep.ni.PollMiss(ep.pr, blockedPolled, b)
	b.park()
}

// park parks the process until the loop ends (wake), unless it already
// has: event-context work may end before the process parks.
func (b *blockedSend) park() {
	if !b.ready {
		b.parked = true
		b.ep.pr.P.ParkUncharged()
		b.parked = false
	}
}

// wake ends the loop where the process resumes: it resumes the parked
// process, or tells park, still to come, not to park.
//
//lint:hotpath
func (b *blockedSend) wake() {
	if b.parked {
		b.ep.pr.P.Resume()
	} else {
		b.ready = true
	}
}

// blockedPolled ends one unsuccessful poll, where the process would
// resume from it: after a re-push the loop checks again at once,
// otherwise it sleeps one SpinWait, charged to Buffering.
//
//lint:hotpath
func blockedPolled(recv any, retried uint64) {
	b := recv.(*blockedSend)
	ep := b.ep
	if retried != 0 {
		b.check()
		return
	}
	ep.Spins++
	if ep.cfg.SpinWait == 0 {
		b.check()
		return
	}
	b.since = ep.pr.Eng.Now()
	ep.pr.Eng.AfterEvent(ep.cfg.SpinWait, blockedSlept, b, 0)
}

// blockedSlept ends a SpinWait sleep.
//
//lint:hotpath
func blockedSlept(recv any, _ uint64) {
	b := recv.(*blockedSend)
	p := b.ep.pr.P
	if p.Done() {
		return
	}
	p.Charge(stats.Buffering, b.since)
	b.check()
}

// check is the loop's test, where push would make it: the process
// resumes when nm can go or an arrival waits, and otherwise polls again.
//
//lint:hotpath
func (b *blockedSend) check() {
	ep := b.ep
	if !ep.ni.CanSend(b.nm) && !ep.arrived() {
		ep.ni.PollMiss(ep.pr, blockedPolled, b)
		return
	}
	b.nm = nil
	b.wake()
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
		return ep.pollMiss()
	}
	nm, ok := ep.ni.Poll(ep.pr)
	if ok {
		ep.accept(nm)
	}
	return ok
}

// pollMiss runs PollOne's unsuccessful poll in event context with the
// process parked (nic.NI.PollMiss) and reports whether it re-pushed a
// returned message.
func (ep *Endpoint) pollMiss() bool {
	b := &ep.blocked
	b.ready = false
	ep.ni.PollMiss(ep.pr, polledOne, b)
	b.park()
	return b.retried
}

// polledOne ends PollOne's unsuccessful poll where the process resumes.
//
//lint:hotpath
func polledOne(recv any, retried uint64) {
	b := recv.(*blockedSend)
	b.retried = retried != 0
	b.wake()
}

// waitOne blocks until a fragment arrives, then processes it. A rendezvous
// endpoint cannot park in the NI's blocking Recv: one-sided completions
// bypass the receive queue, so a blocked Recv would sleep through them. It
// polls both planes instead.
func (ep *Endpoint) waitOne() {
	if ep.rdv == nil {
		ep.accept(ep.ni.Recv(ep.pr))
		return
	}
	for !ep.pollOrSpin() {
	}
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

// accept integrates one network fragment, dispatching the handler when the
// application message is complete. Duplicates of completed messages are
// suppressed by the done set, duplicate fragments by the record's bitmap.
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
	key := eagerKey(nm.Src, fragSeq(nm.Arg))
	if ep.done.has(key) {
		ep.pr.Stats.DupSuppressed++
		return
	}
	idx, total := fragIdx(nm.Arg), fragTotal(nm.Arg)
	in := ep.in[key]
	if in == nil {
		in = ep.newInbound(key, total, Message{Src: nm.Src, Dst: ep.pr.ID, Handler: nm.Handler, SendTime: nm.SendTime})
	}
	if !ep.place(in, idx, total, nm) {
		return
	}
	if idx == 0 {
		in.m.Arg = uint64(nm.Channel)
	}
	if in.received < total {
		return
	}
	delete(ep.in, key)
	in.m.ArriveTime = ep.pr.P.Now()
	ep.deliver(in)
}

// deliver finishes a completed message, for either protocol: its key
// joins the done set, the handler runs on the record's own Message, and
// the record recycles once the handler returns. Receives nested inside the
// handler use other records.
func (ep *Endpoint) deliver(in *inbound) {
	ep.done.add(in.key)
	ep.dispatch(&in.m, len(in.got))
	ep.release(in)
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

// dispatch runs the handler for a completed message, charging the
// per-message receive cost plus the per-fragment cost of every fragment
// past the first. The handler sees exactly PayloadLen payload bytes.
func (ep *Endpoint) dispatch(m *Message, frags int) {
	if m.Payload != nil {
		m.Payload = m.Payload[:m.PayloadLen]
	}
	ep.pr.Stats.MessagesReceived++
	ep.pr.Stats.BytesReceived += int64(m.PayloadLen + netsim.HeaderBytes)
	ep.pr.Work(stats.Transfer, ep.cfg.RecvCycles+ep.cfg.FragCycles*int64(frags-1))
	h := ep.handlers[m.Handler]
	if h == nil {
		panic(fmt.Sprintf("msglayer: node %d has no handler %d", ep.pr.ID, m.Handler))
	}
	ep.Delivered++
	h(ep, m)
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
