package nic

import (
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
type wordEngine struct {
	env         *Env
	hw          *fifoHW
	singleCycle bool
}

func newWordEngine(env *Env, hw *fifoHW, singleCycle bool) *wordEngine {
	return &wordEngine{env: env, hw: hw, singleCycle: singleCycle}
}

// statusRead models checking an NI status register: send-space on the send
// side, receive-ready on the receive side.
func (n *wordEngine) statusRead(pr *proc.Proc) {
	if n.singleCycle {
		pr.Work(stats.Transfer, 1)
		return
	}
	pr.UncachedRead(stats.Transfer, RegStatus, 8)
}

// moveWord models one fifo-window access of Cfg.UncachedWordBytes.
func (n *wordEngine) moveWord(pr *proc.Proc, load bool) {
	pr.Work(stats.Transfer, n.env.Cfg.WordLoopCycles)
	if n.singleCycle {
		pr.Work(stats.Transfer, 1)
		return
	}
	if load {
		pr.UncachedRead(stats.Transfer, FifoBase, n.env.Cfg.UncachedWordBytes)
	} else {
		pr.UncachedWrite(stats.Transfer, FifoBase, n.env.Cfg.UncachedWordBytes)
	}
}

// pathCycles is the per-message software cost of this engine's messaging
// path. The memory-bus NI_2w pays the full fifo path (uncached-access
// juggling); the register-mapped variant exists precisely to strip that to
// almost nothing (the M-machine's motivation).
func (n *wordEngine) pathCycles() int64 {
	if n.singleCycle {
		return 15
	}
	return n.env.Cfg.FifoPathCycles
}

// send implements sendEngine: check send space, push the message through
// the two-word fifo window as a train of sub-messages — one status check
// per Cfg.SubMsgBytes chunk, as on the CM-5, whose fifo messages held at
// most a few words — and fire the doorbell. The processor manages the whole
// transfer.
//
//lint:hotpath
func (n *wordEngine) send(pr *proc.Proc, m *netsim.Message) {
	pr.Work(stats.Transfer, n.pathCycles())
	n.statusRead(pr)
	// An outgoing flow-control buffer is the send fifo slot; without one
	// the processor spins on the status register (buffering stall).
	for !n.env.EP.TryAcquireOut() {
		n.env.Stats.SendBlocked++
		n.env.EP.WaitOut(pr.P)
		n.statusRead(pr)
	}
	n.push(pr, m)
	n.env.EP.Inject(m)
}

// push moves the message through the two-word window and fires the
// doorbell; it is also the cost of re-pushing a returned message.
func (n *wordEngine) push(pr *proc.Proc, m *netsim.Message) {
	w := n.env.Cfg.UncachedWordBytes
	wordsPerChunk := n.env.Cfg.SubMsgBytes / w
	for sent, word := 0, 0; sent < m.Size(); {
		if word == wordsPerChunk {
			n.statusRead(pr)
			word = 0
		}
		n.moveWord(pr, false)
		sent += w
		word++
	}
	// Doorbell: the final uncached store launches the message.
	if !n.singleCycle {
		pr.UncachedWrite(stats.Transfer, RegGo, 8)
	} else {
		pr.Work(stats.Transfer, 1)
	}
}

// pollMiss implements recvEngine: one status read with nothing waiting.
//
//lint:hotpath
func (n *wordEngine) pollMiss(pr *proc.Proc) {
	// An unsuccessful poll is pure monitoring cost — the price of
	// limited buffering (§3.2) — so it lands in the buffering category.
	prev := pr.P.Category
	pr.P.Category = stats.Buffering
	n.statusRead(pr)
	pr.P.Category = prev
}

// pollHit implements recvEngine: the status read preceding a receive.
//
//lint:hotpath
func (n *wordEngine) pollHit(pr *proc.Proc) { n.statusRead(pr) }

// receive implements recvEngine: pop the head message word by word.
//
//lint:hotpath
func (n *wordEngine) receive(pr *proc.Proc) *netsim.Message {
	m := n.hw.head()
	pr.Work(stats.Transfer, n.pathCycles())
	n.popWords(pr, m)
	recordRecv(n.env, m)
	return n.hw.pop()
}

// retryConsume implements recvEngine: the processor first consumes the
// returned message from the network (it comes back through the receive
// path). The retry handler is messaging software — register mapping does
// not shrink it — hence the fixed fifo-path charge.
//
//lint:hotpath
func (n *wordEngine) retryConsume(pr *proc.Proc, m *netsim.Message) {
	pr.Work(pr.P.Category, n.env.Cfg.FifoPathCycles)
	n.popWords(pr, m)
}

// repush implements sendEngine: re-push word by word.
//
//lint:hotpath
func (n *wordEngine) repush(pr *proc.Proc, m *netsim.Message) { n.push(pr, m) }

// popWords is the word-loop cost of draining one message out of the fifo
// window (shared by normal receive and bounce consumption).
func (n *wordEngine) popWords(pr *proc.Proc, m *netsim.Message) {
	w := n.env.Cfg.UncachedWordBytes
	wordsPerChunk := n.env.Cfg.SubMsgBytes / w
	for got, word := 0, 0; got < m.Size(); {
		if word == wordsPerChunk {
			n.statusRead(pr)
			word = 0
		}
		n.moveWord(pr, true)
		got += w
		word++
	}
}
