package nic

import (
	"fmt"

	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// rdma is the one-sided transfer engine: a descriptor-queue NI in the
// VIA/InfiniBand mold. The processor posts a work descriptor naming a user
// buffer and rings a doorbell; the NI DMA-reads the buffer and moves it as
// one-sided put frames that land directly in the target's registered memory
// — they never enter the target's receive queue, so they can neither bounce
// nor be admission-evicted (netsim's Endpoint.Put seam). Two-sided
// sends ride the same descriptor queue but inject ordinary messages that
// the target's coherent ring receives normally.
//
// The price of the direct path is registration: the NI can only DMA pinned
// pages it holds translations for, so the first transfer touching a remote
// target pays a pinning syscall plus a per-page table charge, amortized
// across repeated transfers to the same target (pinCycles). This is the
// cost the paper's coherent NIs avoid entirely — the crossover between the
// two is what the eager/rendezvous sweep measures.
//
// Zero-copy contract: put frames alias the caller's payload slice. The
// caller must not reuse the buffer until the transfer settles (reliable
// runs signal settlement through the engine; unreliable runs must rely on
// their own application-level handshake) — exactly the pinned-buffer rule
// real RDMA verbs impose.
type rdma struct {
	env      *Env
	frameCap int // max put-frame payload bytes (network MTU minus header)
	reliable bool

	descQ   queue[rdmaDesc]
	work    *sim.Cond // descriptor posted
	outFree *sim.Cond // network out-buffer freed (two-sided sends only)

	// pinned is the registration cache: per remote target node, the
	// largest page extent pinned so far (0: none; a transfer pins at least
	// one page).
	pinned []int64

	putSink func(m *netsim.Message) // delivery hook for incoming puts

	stagingSeq int
	busy       bool
	unsettled  int // reliable one-sided frames injected but not yet settled

	// The processor's post in progress (post), in event context while its
	// process stays parked: its next stage, the descriptor, the
	// processor, the train its work and doorbell run as, and where the
	// post ends.
	postAt   int8
	desc     rdmaDesc
	caller   *proc.Proc
	bellTr   proc.Train
	bell     proc.OneStep
	posted   sim.Handler
	doneRecv any
}

type rdmaDescKind uint8

const (
	descSend rdmaDescKind = iota // two-sided message
	descPut                      // one-sided put (fragmented into frames)
)

type rdmaDesc struct {
	kind rdmaDescKind
	m    *netsim.Message // descSend
	put  putWork         // descPut
}

// putWork is the NI-side view of a put descriptor. payload may be nil for
// synthetic transfers; n is the byte count either way.
type putWork struct {
	dst, handler, channel int
	xfer                  uint32
	payload               []byte
	n                     int
	sendTime              sim.Time
}

// PutOp describes a one-sided put: deliver PayloadLen bytes to Dst's
// registered memory, tagging every frame with XferID so the target's
// protocol layer can place and count them (PutFrameArg).
type PutOp struct {
	Dst, Handler, Channel int
	XferID                uint32
	Payload               []byte // nil for synthetic payloads
	PayloadLen            int
	SendTime              sim.Time
}

// RDMA is the one-sided interface an RDMAEngine send side exposes beyond
// the plain NI contract.
type RDMA interface {
	// CanPut reports, at zero simulated cost, whether the descriptor ring
	// has room for a put.
	CanPut() bool
	// Put posts a one-sided put descriptor, charging pr the registration
	// and posting costs. It requires CanPut.
	Put(pr *proc.Proc, op PutOp)
	// SetPutSink installs the delivery hook for incoming put frames. It
	// runs in network-event context: bookkeeping only, no blocking.
	SetPutSink(fn func(m *netsim.Message))
	// Settled reports whether every reliable one-sided frame this engine
	// injected has been acked or abandoned.
	Settled() bool
}

// RDMACapable is implemented by NIs that may expose an RDMA engine. RDMA()
// returns nil when the composed spec has no one-sided send side.
type RDMACapable interface {
	RDMA() RDMA
}

// Put-frame args pack (transfer id, frame index, frame count) so the
// target can place each frame without any per-transfer control traffic.
const (
	putFrameIdxShift   = 32
	putFrameTotalShift = 48
	putFrameMask       = 1<<16 - 1
)

// PutFrameArg encodes a put frame's placement tag. idx and total must fit
// in 16 bits: a transfer is at most 65535 frames.
func PutFrameArg(xfer uint32, idx, total int) uint64 {
	return uint64(xfer) | uint64(idx)<<putFrameIdxShift | uint64(total)<<putFrameTotalShift
}

// DecodePutFrame unpacks PutFrameArg.
func DecodePutFrame(arg uint64) (xfer uint32, idx, total int) {
	return uint32(arg), int(arg >> putFrameIdxShift & putFrameMask), int(arg >> putFrameTotalShift & putFrameMask)
}

// rdmaStagingBase is the DRAM region the engine's DMA reads source from —
// the model's stand-in for the caller's registered user buffers, rotated so
// consecutive transfers do not artificially hit in the cache.
const rdmaStagingBase membus.Addr = 0x3008_2000

func newRDMA(env *Env) *rdma {
	r := &rdma{
		env:      env,
		frameCap: env.EP.MaxNetMsg() - netsim.HeaderBytes,
		reliable: env.EP.Reliable(),
		work:     sim.NewCond(env.Eng),
		outFree:  sim.NewCond(env.Eng),
		pinned:   make([]int64, env.EP.Nodes()),
	}
	// An RDMAEngine spec never builds the fifo hardware, so the doorbell
	// register window is unmapped until the engine claims it.
	env.Bus.MapRange(RegBase, FifoBase, &regsTarget{latency: env.Cfg.NISRAM + env.Cfg.IOBridge})
	env.EP.OnOutFree = func() { r.outFree.Broadcast() }
	// Frames come from and return to the endpoint's free list. A frame the
	// reliability layer sealed (Seq != 0) stays the sender's until it
	// settles; an unsealed one was forgotten at inject, so once the sink
	// has copied what it needs the receiver frees it, and symmetric
	// traffic cycles frames without allocation on unreliable runs too.
	env.EP.OnPut = func(m *netsim.Message) {
		r.env.Stats.FragmentsReceived++
		if r.putSink != nil {
			r.putSink(m)
		}
		if m.Seq == 0 {
			r.env.EP.FreeFrame(m)
		}
	}
	env.EP.OnSettled = func(m *netsim.Message) {
		if r.unsettled > 0 {
			r.unsettled--
		}
		r.env.EP.FreeFrame(m)
	}
	env.Eng.Spawn(fmt.Sprintf("rdma-%d", env.ID), r.engine)
	return r
}

// pinCycles returns the registration cost of a transfer of bytes to dst,
// and records the registration: first touch pays the pinning syscall
// plus the per-page translation installs; later transfers pay only for
// pages beyond the cached extent.
func (r *rdma) pinCycles(dst int, bytes int) int64 {
	cfg := &r.env.Cfg
	pages := int64((bytes + cfg.RDMAPageBytes - 1) / cfg.RDMAPageBytes)
	if pages < 1 {
		pages = 1
	}
	cur := r.pinned[dst]
	if pages <= cur {
		return 0
	}
	cycles := (pages - cur) * cfg.RDMAPagePinCycles
	if cur == 0 {
		cycles += cfg.RDMAPinCycles
	}
	r.pinned[dst] = pages
	return cycles
}

// post charges the registration of a transfer of bytes to dst, the
// descriptor's composition and the doorbell, then queues d for the NI and
// runs done(recv, 0), in event context: each piece is a train that
// continues the post where the processor would resume from it (rdmaPosted).
// The caller has checked that the ring has room (CanPut).
//
//lint:hotpath
func (r *rdma) post(pr *proc.Proc, d rdmaDesc, dst, bytes int, done sim.Handler, recv any) {
	r.postAt, r.desc, r.caller, r.posted, r.doneRecv = 0, d, pr, done, recv
	r.bellTr.Start(pr, stats.Transfer, r.bell.Set(proc.Step{Cycles: r.pinCycles(dst, bytes)}), rdmaPosted, r)
}

// rdmaPosted continues a post: the descriptor's composition, the
// doorbell, then the queued descriptor wakes the NI.
//
//lint:hotpath
func rdmaPosted(recv any, _ uint64) {
	r := recv.(*rdma)
	pr := r.caller
	r.postAt++
	switch r.postAt {
	case 1:
		r.bellTr.Start(pr, stats.Transfer, r.bell.Set(proc.Step{Cycles: r.env.Cfg.RDMADescCycles}), rdmaPosted, r)
	case 2:
		r.bellTr.Start(pr, stats.Transfer, r.bell.Set(doorbell()), rdmaPosted, r)
	default:
		r.descQ.push(r.desc)
		r.desc = rdmaDesc{}
		r.work.Broadcast()
		done, dr := r.posted, r.doneRecv
		r.posted, r.doneRecv = nil, nil
		done(dr, 0)
	}
}

// send is the two-sided path through the descriptor queue, in event
// context (NI.Send): register the buffer, post, and return — the NI
// fetches and injects asynchronously, like a coherent send but with the
// registration tax instead of a cacheable queue copy. It requires CanSend.
//
//lint:hotpath
func (r *rdma) send(pr *proc.Proc, m *netsim.Message, done sim.Handler, recv any) {
	if !r.CanPut() {
		panic("nic: Send without CanSend")
	}
	r.post(pr, rdmaDesc{kind: descSend, m: m}, m.Dst, m.Size(), done, recv)
}

// Put implements RDMA, with the process parked once for the post.
//
//lint:hotpath
func (r *rdma) Put(pr *proc.Proc, op PutOp) {
	if !r.CanPut() {
		panic("nic: Put without CanPut")
	}
	r.post(pr, rdmaDesc{kind: descPut, put: putWork{
		dst: op.Dst, handler: op.Handler, channel: op.Channel,
		xfer: op.XferID, payload: op.Payload, n: op.PayloadLen, sendTime: op.SendTime,
	}}, op.Dst, op.PayloadLen, proc.ReturnHandler, pr)
	pr.Park()
}

// CanPut implements RDMA.
//
//lint:hotpath
func (r *rdma) CanPut() bool { return r.descQ.len() < r.env.Cfg.RDMADescRing }

// SetPutSink implements RDMA.
func (r *rdma) SetPutSink(fn func(m *netsim.Message)) { r.putSink = fn }

// Settled implements RDMA.
//
//lint:hotpath
func (r *rdma) Settled() bool { return r.unsettled == 0 }

// staging returns the next rotating DMA source address.
func (r *rdma) staging() membus.Addr {
	r.stagingSeq++
	return rdmaStagingBase + membus.Addr(r.stagingSeq%256)*1024
}

// engine is the NI-side state machine: drain descriptors, DMA-read the
// source bytes with coherent bus reads, and inject.
func (r *rdma) engine(p *sim.Process) {
	for {
		for r.descQ.len() == 0 {
			r.busy = false
			r.work.Wait(p)
		}
		r.busy = true
		d := r.descQ.pop()
		switch d.kind {
		case descSend:
			r.dmaRead(p, d.m.Size())
			for !r.env.EP.TryAcquireOut() {
				r.outFree.Wait(p)
			}
			r.env.EP.Inject(d.m)
			if tr := r.env.Trace; tr != nil {
				tr("rdma inject dst=%d size=%dB", d.m.Dst, d.m.Size())
			}
		case descPut:
			r.servePut(p, d.put)
		}
	}
}

// servePut fragments one put into MTU-sized frames, DMA-reading each
// frame's bytes before injecting it. Frames bypass flow control entirely
// (netsim one-sided seam), so pacing comes from the DMA reads and the
// link's injection serialization, exactly like hardware.
//
//lint:hotpath
func (r *rdma) servePut(p *sim.Process, w putWork) {
	frames := (w.n + r.frameCap - 1) / r.frameCap
	if frames < 1 {
		frames = 1
	}
	sent := 0
	for i := 0; i < frames; i++ {
		fb := w.n - sent
		if fb > r.frameCap {
			fb = r.frameCap
		}
		r.dmaRead(p, fb+netsim.HeaderBytes)
		f := r.env.EP.TakeFrame()
		f.Src = r.env.ID
		f.Dst = w.dst
		f.Handler = w.handler
		f.Channel = w.channel
		f.PayloadLen = fb
		if w.payload != nil {
			f.Payload = w.payload[sent : sent+fb]
		}
		f.Arg = PutFrameArg(w.xfer, i, frames)
		f.SendTime = w.sendTime
		r.env.EP.Put(f)
		r.env.Stats.FragmentsSent++
		if r.reliable {
			r.unsettled++
		}
		sent += fb
	}
	if tr := r.env.Trace; tr != nil {
		tr("rdma put dst=%d xfer=%d bytes=%d frames=%d", w.dst, w.xfer, w.n, frames)
	}
}

// dmaRead models the NI's coherent fetch of n source bytes from the
// registered buffer: one split GetS transaction per 64-byte block, each
// snooping the processor cache like any other bus master. Scratch
// transactions (Bus.Access) keep the per-frame path allocation-free.
//
//lint:hotpath
func (r *rdma) dmaRead(p *sim.Process, n int) {
	src := r.staging()
	blocks := (n + membus.BlockSize - 1) / membus.BlockSize
	if blocks < 1 {
		blocks = 1
	}
	for i := 0; i < blocks; i++ {
		r.env.Bus.Access(p, membus.GetS, src+membus.Addr(i*membus.BlockSize), membus.BlockSize)
	}
}

// idle reports whether the descriptor queue has drained, the state machine
// is parked, and (on reliable networks) every one-sided frame settled.
// Unreliable one-sided frames in flight are invisible here — there is no
// ack to observe — so workloads on unreliable networks must quiesce
// through their own protocol-level completion signal.
//
//lint:hotpath
func (r *rdma) idle() bool { return r.descQ.len() == 0 && !r.busy && r.unsettled == 0 }
