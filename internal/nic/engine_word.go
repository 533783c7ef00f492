package nic

import (
	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/stats"
)

// wordEngine is the CM-5-like uncached-word transfer engine: the processor
// sees only the first two words of the NI fifo and moves every message word
// itself with uncached loads and stores. All three data-transfer parameters
// are at their least aggressive settings: small transfers, full processor
// involvement, and register-to-register source/destination.
//
// With singleCycle set, the same engine is mapped into the processor
// (Figure 4's single-cycle NI_2w, approximating register-mapped NIs such as
// the MIT M-machine): every access costs one processor cycle and no bus
// transaction.
//
// Every processor access sequence runs as one access train (fifoTrain), so
// the processor parks once per sequence instead of once per word.
type wordEngine struct {
	env         *Env
	hw          *fifoHW
	singleCycle bool
}

func newWordEngine(env *Env, hw *fifoHW, singleCycle bool) *wordEngine {
	return &wordEngine{env: env, hw: hw, singleCycle: singleCycle}
}

// access is one processor access to the NI: an uncached bus access, or one
// processor cycle when the NI is register-mapped.
func (n *wordEngine) access(k membus.Kind, a membus.Addr, size int) proc.Step {
	if n.singleCycle {
		return proc.Step{Cycles: 1}
	}
	return uncached(k, a, size)
}

// status is a read of an NI status register: send-space on the send side,
// receive-ready on the receive side.
func (n *wordEngine) status() proc.Step {
	return n.access(membus.UncachedRead, RegStatus, 8)
}

// path is the per-message software cost of this engine's messaging path.
// The memory-bus NI_2w pays the full fifo path (uncached-access juggling);
// the register-mapped variant exists precisely to strip that to almost
// nothing (the M-machine's motivation).
func (n *wordEngine) path() proc.Step {
	if n.singleCycle {
		return proc.Step{Cycles: 15}
	}
	return proc.Step{Cycles: n.env.Cfg.FifoPathCycles}
}

// words describes the word loop moving bytes through the two-word window
// with accesses of kind k: per Cfg.UncachedWordBytes word, the loop
// overhead and one window access, and a status read opening each
// Cfg.SubMsgBytes sub-message, as on the CM-5, whose fifo messages held at
// most a few words.
func (n *wordEngine) words(k membus.Kind, bytes int) *fifoSteps {
	cfg := &n.env.Cfg
	c := n.hw.train()
	c.bytes, c.unit = bytes, cfg.UncachedWordBytes
	c.move = n.access(k, FifoBase, cfg.UncachedWordBytes)
	c.chunk, c.status = cfg.SubMsgBytes/cfg.UncachedWordBytes, n.status()
	if n.singleCycle {
		c.pre = cfg.WordLoopCycles
	} else {
		c.move.Cycles = cfg.WordLoopCycles
	}
	return c
}

// prologue implements sendEngine: the path cycles and a check of send
// space.
//
//lint:hotpath
func (n *wordEngine) prologue() (proc.Step, proc.Step) { return n.path(), n.status() }

// transmit implements sendEngine: push the message through the two-word
// fifo window and fire the doorbell. The processor manages the whole
// transfer.
//
//lint:hotpath
func (n *wordEngine) transmit(c *fifoCall) { c.push(n.push(c.m)) }

// push describes moving the message through the two-word window and
// firing the doorbell, whose final uncached store launches the message; it
// is also the cost of re-pushing a returned message.
func (n *wordEngine) push(m *netsim.Message) *fifoSteps {
	c := n.words(membus.UncachedWrite, m.Size())
	c.tail = n.access(membus.UncachedWrite, RegGo, 8)
	return c
}

// pollMiss implements recvEngine: one status read with nothing waiting.
// It is charged to Transfer, as the CM-5 engine always has, although the
// recvEngine contract puts a miss in the buffering category; moving it
// would change every CM-5 breakdown.
//
//lint:hotpath
func (n *wordEngine) pollMiss() (*fifoSteps, int) {
	c := n.hw.train()
	c.lead[0] = n.status()
	return c, stats.Transfer
}

// receive implements recvEngine: the status read that found the message,
// then pop the head message word by word.
//
//lint:hotpath
func (n *wordEngine) receive(c *fifoCall) {
	t := n.words(membus.UncachedRead, n.hw.head().Size())
	t.lead = [2]proc.Step{n.status(), n.path()}
	c.drain(t)
}

// retryWork implements recvEngine: the retry handler is messaging
// software — register mapping does not shrink it — hence the fixed
// fifo-path charge.
//
//lint:hotpath
func (n *wordEngine) retryWork() int64 { return n.env.Cfg.FifoPathCycles }

// retryConsume implements recvEngine: the processor consumes the returned
// message word by word from the network (it comes back through the
// receive path), charged to Transfer like every CM-5 word move.
//
//lint:hotpath
func (n *wordEngine) retryConsume(m *netsim.Message) (*fifoSteps, int) {
	return n.words(membus.UncachedRead, m.Size()), stats.Transfer
}

// repush implements sendEngine: re-push word by word, charged to
// Transfer like the first push.
//
//lint:hotpath
func (n *wordEngine) repush(m *netsim.Message) (*fifoSteps, int) {
	return n.push(m), stats.Transfer
}
