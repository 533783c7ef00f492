package nic

import (
	"fmt"

	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/sim"
)

// sendEngine is the transmit half of a fifo-family transfer engine: the
// processor-side work of handing one message to the network, plus the
// re-push cost the FifoVM buffering policy charges when a bounced message
// must go out again. A send runs in event context (fifoHW.send), so the
// engine describes its trains and chains them; it runs none in process
// context.
type sendEngine interface {
	// prologue describes the send's first train, the path cycles and the
	// status check, ahead of the claim of the outgoing flow-control buffer
	// CanSend found free. A zero status step means the engine checks
	// nothing.
	prologue() (path, status proc.Step)
	// transmit moves c's message once the buffer is claimed, injects it,
	// and ends the send with c.sendDone.
	transmit(c *fifoCall)
	// repush describes re-pushing a bounced message, whether noticed
	// while the processor waits inside Recv or found by a poll, as the
	// node's fifo train, and returns the train's category.
	repush(m *netsim.Message) (*fifoSteps, int)
}

// recvEngine is the receive half of a fifo-family transfer engine: the
// processor-side work of polling for and draining one message out of the
// fifo window, plus the cost of consuming a bounced message off the
// network before it is re-pushed. The processor runs all of it from event
// context, with its process parked (fifoCall, spinner), so the engine
// describes its trains and chains them.
type recvEngine interface {
	// pollMiss describes an unsuccessful poll, the status read that finds
	// nothing waiting, as the node's fifo train, and returns the train's
	// category: monitoring cost, Buffering on the udma and block-buffer
	// engines, but Transfer on the CM-5 engines.
	pollMiss() (*fifoSteps, int)
	// receive runs the status check that found the head message, then
	// drains it out of the fifo window, and ends with c.recvDone, which
	// pops it. The two are one chain: nothing but the processor pops
	// recvQ and OnAccept only appends, so the head the status check saw
	// is the head receive drains.
	receive(c *fifoCall)
	// retryWork is the retry handler's own software, in cycles charged to
	// Buffering, ahead of retryConsume.
	retryWork() int64
	// retryConsume describes reading a bounced message back out of the
	// network before repush sends it again, as the node's fifo train, and
	// returns the train's category.
	retryConsume(m *netsim.Message) (*fifoSteps, int)
}

// composed is an NI assembled from a Spec: a send transfer engine, a
// receive transfer engine, and a buffering policy. The nine named Kinds are
// just well-known Specs; cross-product Specs build the same way.
//
// Dispatch is by layer, not by design: the coherent engine owns whichever
// sides the Spec marks coherent, the fifo engines own the rest, and the
// buffering policy (FifoVM's bounce queue vs. a coherent ring's NI-side
// retry) decides the NeedsRetry behavior.
type composed struct {
	env  *Env
	kind Kind
	spec Spec

	hw   *fifoHW   // fifo window hardware; nil for pure-coherent specs
	coh  *coherent // coherent engine; nil for FifoVM specs
	rdma *rdma     // one-sided engine; nil unless the send side is RDMA

	send sendEngine // nil when the send side is coherent or RDMA
	recv recvEngine // nil when the receive side is coherent
}

// newFifoEngine builds the fifo-family engine for e. The returned value
// implements sendEngine, and recvEngine for every engine but the
// send-only reflective one.
func newFifoEngine(env *Env, hw *fifoHW, e Engine) any {
	switch e {
	case UncachedWordEngine:
		return newWordEngine(env, hw, false)
	case RegisterWordEngine:
		return newWordEngine(env, hw, true)
	case BlockBufEngine:
		return newBlockBufEngine(env, hw)
	case ReflectiveEngine:
		return newReflectiveEngine(env, hw)
	case UDMAEngine:
		return newUdmaEngine(env, hw)
	default:
		panic(fmt.Sprintf("nic: %s is not a fifo-family engine", e))
	}
}

// compose builds a working NI from a validated Spec, wiring it to the
// node's bus, memory, and network endpoint.
//
// Construction order is load-bearing (it fixes bus-target registration and
// endpoint-callback wiring, and therefore the event schedule):
//
//  1. The fifo window hardware, when any side is fifo-family. Its
//     constructor wires OnAccept and OnBounce (FifoVM's software-visible
//     bounce queue).
//  2. The fifo engines. When both sides name the same engine they share
//     one instance — the UDMA engine's staging rotation is per-device
//     state, not per-direction.
//  3. The coherent engine, for ring-buffered specs. Its constructor
//     builds the ring store's device memories before it attaches to the
//     bus, overrides OnAccept (receive is the coherent side), wires
//     OnControl when throttled, and wires the hooks that drive the
//     NI-side state machines (OnOutFree on a coherent send side).
//  4. Ring buffering does not involve the processor (Table 2): returned
//     messages are retried by the NI, not the software, so the composer
//     un-wires the fifo hardware's OnBounce.
//  5. The RDMA engine, after the coherent engine: its constructor wires
//     the endpoint's OnOutFree and the one-sided delivery hooks.
//  6. A spec that builds no NI-side bus master (FifoVM buffering, so no
//     coherent engine, and no RDMA engine) marks the bus processor-only,
//     so the processor's fifo-window access trains run closed
//     (proc.Train). UDMA's block chain masters the bus only while its
//     software waits for it, never during a train. UDMA's staging copies
//     through the cache are cached trains, which run stepwise.
//  7. The overload policy, when the Spec sets one, compiles into the
//     endpoint's Admit hook (overload.go) — after the engines, so the
//     occupancy signal reads whichever buffering layer was built.
func compose(spec Spec, kind Kind, env *Env) *composed {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	x := &composed{env: env, kind: kind, spec: spec}
	if spec.Send.fifoFamily() || spec.Recv.fifoFamily() {
		x.hw = newFifoHW(env, spec)
	}
	if spec.Send.fifoFamily() {
		e := newFifoEngine(env, x.hw, spec.Send)
		x.send = e.(sendEngine)
		if spec.Recv == spec.Send {
			x.recv = e.(recvEngine)
		}
	}
	if spec.Recv.fifoFamily() && x.recv == nil {
		x.recv = newFifoEngine(env, x.hw, spec.Recv).(recvEngine)
	}
	if spec.Buffering != FifoVM {
		x.coh = newCoherent(env, spec)
		if x.hw != nil {
			env.EP.OnBounce = nil
		}
	}
	if spec.Send == RDMAEngine {
		x.rdma = newRDMA(env)
	}
	if spec.Buffering == FifoVM && spec.Send != RDMAEngine {
		env.Bus.SetProcessorOnly()
	}
	x.installOverload()
	return x
}

// Kind implements NI: the named design point this spec reproduces, or
// Custom for cross-product specs.
func (x *composed) Kind() Kind { return x.kind }

// Spec returns the design point the NI was composed from.
func (x *composed) Spec() Spec { return x.spec }

// Send implements NI.
//
//lint:hotpath
func (x *composed) Send(pr *proc.Proc, m *netsim.Message, done sim.Handler, recv any) {
	if x.spec.Send == CoherentEngine {
		x.coh.send(pr, m, done, recv)
		return
	}
	if x.spec.Send == RDMAEngine {
		x.rdma.send(pr, m, done, recv)
		return
	}
	x.hw.send(pr, x.send, m, done, recv)
}

// Poll implements NI.
//
//lint:hotpath
func (x *composed) Poll(pr *proc.Proc, done Received, recv any) {
	if !x.Pending() {
		panic("nic: Poll without Pending")
	}
	if x.spec.Recv == CoherentEngine {
		x.coh.receive(pr, true, done, recv)
		return
	}
	x.hw.poll(pr, x.recv, done, recv)
}

// PollMiss implements NI.
//
//lint:hotpath
func (x *composed) PollMiss(pr *proc.Proc, done sim.Handler, recv any) {
	if x.spec.Recv == CoherentEngine {
		x.coh.pollMiss(pr, done, recv)
		return
	}
	x.hw.pollMiss(pr, x.send, x.recv, done, recv)
}

// Recv implements NI.
//
//lint:hotpath
func (x *composed) Recv(pr *proc.Proc, done Received, recv any) {
	if x.spec.Recv == CoherentEngine {
		x.coh.receive(pr, false, done, recv)
		return
	}
	x.hw.recv(pr, x.send, x.recv, done, recv)
}

// Pending implements NI.
//
//lint:hotpath
func (x *composed) Pending() bool {
	if x.spec.Recv == CoherentEngine {
		return x.coh.pending()
	}
	return x.hw.pending()
}

// CanSend implements NI: a coherent send side needs ring space (and, when
// throttled, receiver credit); a fifo send side needs an outgoing
// flow-control buffer.
//
//lint:hotpath
func (x *composed) CanSend(m *netsim.Message) bool {
	if x.spec.Send == CoherentEngine {
		return x.coh.canSend(m)
	}
	if x.spec.Send == RDMAEngine {
		return x.rdma.CanPut()
	}
	return x.env.EP.OutFree() > 0
}

// NeedsRetry implements NI: only FifoVM buffering involves the processor
// in retrying bounced messages (Table 2); ring policies retry on the NI.
//
//lint:hotpath
func (x *composed) NeedsRetry() bool {
	return x.spec.Buffering == FifoVM && x.hw.hasBounced()
}

// Idle implements NI: fifo-family sends complete synchronously inside
// Send, so only a coherent send side can hold queued work.
//
//lint:hotpath
func (x *composed) Idle() bool {
	if x.spec.Send == CoherentEngine {
		return x.coh.idle()
	}
	if x.spec.Send == RDMAEngine {
		return x.rdma.idle()
	}
	return true
}

// RDMA implements RDMACapable: the one-sided interface, or nil for specs
// without an RDMA send side. Returned as an explicit nil so callers can
// test `ni.RDMA() == nil` without tripping over a typed-nil interface.
func (x *composed) RDMA() RDMA {
	if x.rdma == nil {
		return nil
	}
	return x.rdma
}
