// Package nic implements the memory-bus network interfaces the paper
// evaluates, decomposed along the axes of its own taxonomy (Table 2): a
// transfer engine per side (the bus-transaction idiom moving message
// bytes) composed with a buffering policy (where messages wait and who
// retries them). The seven studied NIs, plus the single-cycle
// (processor-register-mapped) NI_2w variant of Figure 4 and the
// send-throttled CNI_32Q_m of Table 5, are just named points (Spec) in
// that space:
//
//	NI_2w            (CM-5-like)          uword+uword         over fifovm
//	NI_64w+Udma      (Princeton UDMA)     udma+udma           over fifovm
//	NI_16w+Blkbuf    (AP3000-like)        blkbuf+blkbuf       over fifovm
//	CNI_0Q_m         (StarT-JR-like)      coherent+coherent   over memring
//	Blkbuf_S/CNI_R   (Memory Channel)     reflective+coherent over memring
//	CNI_512Q         (CNI, no cache)      coherent+coherent   over niring
//	CNI_32Q_m        (CNI with cache)     coherent+coherent   over nicache
//
// The three ring bufferings differ only in where the rings live, so the
// coherent engine holds them as data (ring.go). Every composed NI exposes
// the same contract — Send, Poll, Recv — to the messaging layer. The rest
// of the valid cross product (see Spec.Validate) is reachable through
// NewFromSpec and swept by nisim designspace.
package nic

import (
	"fmt"

	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/netsim"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/stats"
)

// Kind identifies one of the studied NI designs.
//
//lint:enum
type Kind int

// The NI designs of Table 2 (plus the two §6 variants).
const (
	CM5             Kind = iota // NI_2w, CM-5-like
	CM5SingleCycle              // single-cycle NI_2w (processor-register-mapped, Figure 4)
	UDMA                        // NI_64w+Udma, Princeton UDMA-based
	AP3000                      // NI_16w+Blkbuf, Fujitsu AP3000-like
	StarTJR                     // CNI_0Q_m, MIT StarT-JR-like
	MemoryChannel               // (NI_16w+Blkbuf)_S (CNI_0Q_m)_R, DEC Memory Channel-like
	CNI512Q                     // Wisconsin CNI without a cache
	CNI32Qm                     // Wisconsin CNI with a cache
	CNI32QmThrottle             // CNI_32Q_m with send throttling (Table 5 bandwidth)
	numKinds
)

// Kinds lists all supported NI kinds.
func Kinds() []Kind {
	ks := make([]Kind, 0, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

// PaperSeven lists the seven NIs of the paper's main evaluation, in Table 2
// order.
func PaperSeven() []Kind {
	return []Kind{CM5, UDMA, AP3000, StarTJR, MemoryChannel, CNI512Q, CNI32Qm}
}

// kindInfo is one named design point: its CLI/report identifier, its
// display name, and its Table 2 decomposition.
type kindInfo struct {
	short, long string
	spec        Spec
}

// namedKinds describes every named Kind, indexed by Kind.
var namedKinds = [numKinds]kindInfo{
	CM5:             {"cm5", "NI_2w (CM-5-like)", Spec{Send: UncachedWordEngine, Recv: UncachedWordEngine, Buffering: FifoVM}},
	CM5SingleCycle:  {"cm5-1cycle", "single-cycle NI_2w", Spec{Send: RegisterWordEngine, Recv: RegisterWordEngine, Buffering: FifoVM}},
	UDMA:            {"udma", "NI_64w+Udma (Udma-based)", Spec{Send: UDMAEngine, Recv: UDMAEngine, Buffering: FifoVM}},
	AP3000:          {"ap3000", "NI_16w+Blkbuf (AP3000-like)", Spec{Send: BlockBufEngine, Recv: BlockBufEngine, Buffering: FifoVM}},
	StarTJR:         {"startjr", "CNI_0Qm (Start-JR-like)", Spec{Send: CoherentEngine, Recv: CoherentEngine, Buffering: MemoryRing}},
	MemoryChannel:   {"memchannel", "Memory Channel-like", Spec{Send: ReflectiveEngine, Recv: CoherentEngine, Buffering: MemoryRing}},
	CNI512Q:         {"cni512q", "CNI_512Q", Spec{Send: CoherentEngine, Recv: CoherentEngine, Buffering: NIRing}},
	CNI32Qm:         {"cni32qm", "CNI_32Qm", Spec{Send: CoherentEngine, Recv: CoherentEngine, Buffering: NICachedRing}},
	CNI32QmThrottle: {"cni32qm-throttle", "CNI_32Qm+Throttle", Spec{Send: CoherentEngine, Recv: CoherentEngine, Buffering: NICachedRing, Throttle: true}},
}

// named reports whether k is one of the named design points.
func (k Kind) named() bool { return k >= 0 && k < numKinds }

func (k Kind) String() string {
	if !k.named() {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return namedKinds[k].long
}

// ShortName returns a compact identifier usable in CLI flags and reports.
func (k Kind) ShortName() string {
	if !k.named() {
		return fmt.Sprintf("kind%d", int(k))
	}
	return namedKinds[k].short
}

// KindByName resolves a ShortName back to a Kind.
func KindByName(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.ShortName() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("nic: unknown NI kind %q", s)
}

// NI is the contract every network interface model implements. The
// messaging layer is the only intended caller; it fragments application
// messages to the network maximum before calling Send.
//
// Two calls have preconditions, the same for all designs: Send requires
// CanSend, and Poll requires Pending. Either one called without its
// precondition panics. So the NI never waits for send resources itself:
// the messaging layer alone decides what the processor does meanwhile.
//
// Every call that costs the processor time (Send, Poll, PollMiss, Recv)
// runs in event context while the calling process stays parked,
// uncharged (sim.Process.ParkUncharged): each piece of its work is
// charged to its own category, its trains and waits chain through done
// hooks, each in the slot where the process would have resumed from it,
// and its own done hook runs where the call returns. No decision inside a
// call needs software, so the process parks once per call: a caller in
// process context starts the call and parks with proc.Proc.Park, and the
// done hook ends the call with proc.Proc.Return. A call may run its done
// hook before it returns (work that ends where it starts), which Park
// allows for.
//
// Three of the zero-cost queries have semantics precise enough to be worth
// stating once, for all designs:
//
//   - Pending is about the receive side only: it is true exactly when a
//     call to Poll would return a message (and therefore Recv would return
//     without waiting). Messages still in flight, or accepted by the NI
//     but not yet deposited where the processor can read them, do not
//     count.
//
//   - NeedsRetry is about bounced messages only: it is true exactly when a
//     returned-to-sender message is waiting for *software* re-push, which
//     can only happen under buffering that involves the processor
//     (Table 2's FifoVM). Designs whose NI retries in hardware — every
//     ring-buffered design, including the Memory Channel hybrid — report
//     false unconditionally.
//
//   - Idle is about the send side only: it is true exactly when the NI has
//     no queued or in-flight send work, so a drain barrier that has
//     stopped calling Send may safely end the phase. Fifo-family sends
//     complete synchronously inside Send, so those designs are always
//     idle by the time Send returns — the Memory Channel NI's
//     unconditional true is correct, not a stub, because its reflective
//     send holds the processor until injection and its receive side holds
//     no send work at all. Only a coherent send engine, which queues
//     composed messages for NI-side fetch, can be non-idle. Idle says
//     nothing about the receive side: a drain loop must also consume
//     until Pending is false.
type NI interface {
	// Kind identifies the design.
	Kind() Kind
	// Send performs all processor-side work to transmit m and hands it to
	// the network, occupying the processor exactly as long as the design
	// requires (a CM-5-like NI moves every word; a CNI is done once it
	// has composed the message in cacheable queue memory), then runs
	// done(recv, 0). It requires CanSend(m).
	Send(pr *proc.Proc, m *netsim.Message, done sim.Handler, recv any)
	// Poll receives the message Pending promises: it performs the
	// processor-side reception work (pops, block loads, or coherent queue
	// reads) and runs done(recv, m). It requires Pending; m is nil only
	// when an overload eviction took the message while the processor's
	// head read was in flight.
	Poll(pr *proc.Proc, done Received, recv any)
	// PollMiss is the unsuccessful poll of a processor that found nothing
	// to receive (Pending is false). It charges the design's polling cost
	// and then, when NeedsRetry holds, the re-push of the oldest returned
	// message, each to its design's category, and runs done(recv,
	// retried), retried 1 after a re-push.
	PollMiss(pr *proc.Proc, done sim.Handler, recv any)
	// Recv waits until a message is available, then receives it as Poll
	// does. Idle waiting is charged to the compute category; only the
	// actual transfer work counts as transfer time.
	Recv(pr *proc.Proc, done Received, recv any)
	// Pending reports, at zero simulated cost, whether a message could be
	// returned now. Application loops use it to decide whether to poll.
	Pending() bool
	// CanSend reports, at zero simulated cost, whether Send(m) would
	// proceed without blocking on buffering. The messaging layer polls and
	// dispatches incoming messages while CanSend is false — the software
	// discipline that avoids the fetch-deadlock of §3.2. Only this node's
	// own sends consume the checked resources, so a true result cannot be
	// invalidated before the immediately following Send.
	CanSend(m *netsim.Message) bool
	// NeedsRetry reports whether returned-to-sender messages await software
	// re-push (true only for NIs whose buffering involves the processor,
	// Table 2). Zero simulated cost.
	NeedsRetry() bool
	// Idle reports whether the NI has no queued or in-flight work on the
	// send side (used by drain barriers at the end of program phases).
	Idle() bool
}

// Received is where a receive ends (NI.Poll, NI.Recv): it runs in the
// slot where the receiving process resumes, with the message received,
// or nil when an overload eviction took it during the head read.
type Received func(recv any, m *netsim.Message)

// Config holds the NI-design constants. Zero value is not useful; call
// DefaultConfig.
type Config struct {
	NISRAM sim.Time // NI SRAM access time (Table 3: 60 ns)
	NIDRAM sim.Time // NI DRAM access time (CNI_512Q; Table 3 note: 120 ns)

	// UncachedWordBytes is the width of one NI_2w fifo access.
	UncachedWordBytes int
	// WordLoopCycles is the software loop overhead per fifo word moved.
	WordLoopCycles int64
	// SubMsgBytes is the NI_2w fifo-window granularity: larger transfers
	// move as a train of sub-messages, each requiring its own status check
	// (the CM-5 fifo held at most a few words per message).
	SubMsgBytes int
	// FifoPathCycles is the per-message software overhead specific to the
	// fifo-NI messaging paths (fifo arbitration, bounds and alignment
	// handling) charged on each side, on top of the common layer costs.
	FifoPathCycles int64

	// BlkbufPathCycles is the per-message software overhead of the
	// block-buffer messaging path; lower than FifoPathCycles because the
	// block interface needs no per-word bounds or alignment handling.
	BlkbufPathCycles int64
	// BlockBufCycles is the instruction overhead to flush or load the
	// 64-byte block buffer (§6.1.1: 12 processor cycles).
	BlockBufCycles int64

	// UDMAThresholdBytes: payloads at or below this use the uncached-window
	// path; larger payloads use UDMA (§6.1.1: 96 bytes).
	UDMAThresholdBytes int
	// UDMAMasterSwitch is the bus-master handoff time for a UDMA start.
	UDMAMasterSwitch sim.Time

	// CNIQueueBlocks is the CNI_512Q queue capacity in 64-byte blocks.
	CNIQueueBlocks int
	// CNICacheBlocks is the CNI_32Q_m per-direction NI cache capacity.
	CNICacheBlocks int
	// QmQueueBlocks is the capacity of a memory-homed receive queue ring
	// ("plentiful buffering in main memory").
	QmQueueBlocks int
	// QmSendQueueBlocks is the memory-homed send queue ring capacity. The
	// send side needs only enough to decouple the processor from the NI, and
	// keeping it small keeps the composing blocks warm in the processor
	// cache across wraps.
	QmSendQueueBlocks int

	// RDMA engine registration cost model. One-sided transfers move user
	// buffers the NI reads directly over the bus, so the OS must pin the
	// pages and install them in the adapter's translation table before the
	// first transfer — the classic VIA/InfiniBand memory-registration tax.
	// The charge is per *region*: the first put touching a remote
	// target pays RDMAPinCycles plus RDMAPagePinCycles per page; repeated
	// transfers to the same target reuse the cached registration and pay
	// only for pages beyond the largest extent seen so far.

	// RDMAPinCycles is the fixed processor cost of a registration syscall
	// (pin + translation-table install), charged on first touch per target.
	RDMAPinCycles int64
	// RDMAPagePinCycles is the incremental cost per newly pinned page.
	RDMAPagePinCycles int64
	// RDMAPageBytes is the pinning granularity.
	RDMAPageBytes int
	// RDMADescCycles is the processor cost to compose and post one RDMA
	// work descriptor (doorbell write is charged separately).
	RDMADescCycles int64
	// RDMADescRing is the descriptor ring depth; while the ring is full,
	// CanSend and CanPut are false until the NI drains an entry.
	RDMADescRing int

	// Ablation switches (all off in the paper's configurations).

	// DisableCNIPrefetch turns off the CNI send-side block prefetch
	// (CNI_512Q / CNI_32Q_m lose the overlap of composition and fetch).
	DisableCNIPrefetch bool
	// DisableCNIBypass makes a full CNI_32Q_m receive cache exert
	// backpressure instead of writing fresh messages straight to memory.
	DisableCNIBypass bool
	// DisableDeadSuppress makes the CNI_32Q_m write consumed (dead) blocks
	// back to main memory on reclamation instead of dropping them.
	DisableDeadSuppress bool
	// IOBridge places a fifo NI behind an I/O-bus bridge: every device
	// access pays this extra latency (the paper's motivation: I/O buses
	// are a factor of 2-10 worse than memory buses).
	IOBridge sim.Time
}

// DefaultConfig returns the paper's constants.
func DefaultConfig() Config {
	return Config{
		NISRAM:             60 * sim.Nanosecond,
		NIDRAM:             120 * sim.Nanosecond,
		UncachedWordBytes:  8,
		WordLoopCycles:     2,
		SubMsgBytes:        16,
		FifoPathCycles:     150,
		BlkbufPathCycles:   60,
		BlockBufCycles:     12,
		UDMAThresholdBytes: 96,
		UDMAMasterSwitch:   100 * sim.Nanosecond,
		CNIQueueBlocks:     512,
		CNICacheBlocks:     32,
		QmQueueBlocks:      8192,
		QmSendQueueBlocks:  128,
		RDMAPinCycles:      1500,
		RDMAPagePinCycles:  300,
		RDMAPageBytes:      4096,
		RDMADescCycles:     80,
		RDMADescRing:       64,
	}
}

// Node-local address map. Each node has a private physical address space;
// the NI claims the device window and, for memory-homed CNI queues, fixed
// DRAM regions.
const (
	// DRAMBase..DRAMLimit is main memory.
	DRAMBase  membus.Addr = 0x0000_0000
	DRAMLimit membus.Addr = 0x4000_0000

	// QmSendBase / QmRecvBase are the memory-homed CNI queue rings. The
	// bases are staggered modulo the 1 MB direct-mapped processor cache so
	// that the send ring (8 KB at cache offset 0), the receive ring (512 KB
	// at offset 64 KB), and the pointer blocks (offset 0x90000) never evict
	// one another.
	QmSendBase membus.Addr = 0x0800_0000
	QmRecvBase membus.Addr = 0x0A01_0000
	// QmPtrBase holds the cacheable head/tail pointer blocks.
	QmPtrBase membus.Addr = 0x0C09_0000

	// DeviceBase..DeviceLimit is the NI device window.
	DeviceBase  membus.Addr = 0x4000_0000
	DeviceLimit membus.Addr = 0x5000_0000

	// RegBase holds uncached NI control/status registers.
	RegBase membus.Addr = 0x4000_0000
	// FifoBase is the fifo window (NI_2w pops/pushes, block-buffer
	// transfers, UDMA window) backed by NI SRAM. Uncached, so its cache
	// alignment is irrelevant.
	FifoBase membus.Addr = 0x4010_0000
	// NIQSendBase / NIQRecvBase are the CNI_512Q queue rings homed in NI
	// DRAM: 32 KB each, staggered to cache offsets 0x2000 and 0xA0000.
	NIQSendBase membus.Addr = 0x4100_2000
	NIQRecvBase membus.Addr = 0x420A_0000

	// Well-known registers.
	RegStatus   = RegBase + 0x00 // send-space / recv-ready status
	RegGo       = RegBase + 0x08 // send doorbell
	RegUdmaAddr = RegBase + 0x10 // UDMA start: uncached store of address
	RegUdmaStat = RegBase + 0x18 // UDMA start: uncached load completing the pair
)

// Env is everything an NI needs from its node. The machine layer builds it.
// EP is the NI's only link to other nodes: no NI holds another node's NI,
// and cross-node control, such as the throttle's credits, rides
// EP.PostControl.
type Env struct {
	Eng   *sim.Engine
	ID    int
	Bus   *membus.Bus
	Mem   *mainmem.Memory
	EP    *netsim.Endpoint
	Stats *stats.Node
	CPU   sim.Clock
	Cfg   Config
	// Trace, when non-nil, receives one formatted line per component-seam
	// event (engine start/complete, buffer accept/bounce/reclaim). Wired by
	// the machine layer when NIC tracing is enabled; nil costs nothing.
	Trace func(format string, args ...any)
}

// New constructs the NI model for kind, wiring it to the node's bus,
// memory, and network endpoint. Every named kind is built by composing its
// Spec — there are no monolithic implementations.
func New(kind Kind, env *Env) NI {
	if !kind.named() {
		panic(fmt.Sprintf("nic: unknown kind %d", int(kind)))
	}
	return compose(SpecFor(kind), kind, env)
}

// NewFromSpec constructs the NI for an arbitrary design point. The spec
// must Validate; named points report their Kind, cross-product points
// report Custom.
func NewFromSpec(spec Spec, env *Env) (NI, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return compose(spec, KindOf(spec), env), nil
}

// blocksFor returns how many 64-byte blocks m occupies in a CNI queue.
func blocksFor(m *netsim.Message) int {
	return (m.Size() + membus.BlockSize - 1) / membus.BlockSize
}

// blockBytes returns how many of m's bytes its i-th queue block holds.
func blockBytes(m *netsim.Message, i int64) int {
	return min(m.Size()-int(i)*membus.BlockSize, membus.BlockSize)
}

// regsTarget is the membus.Target for the uncached control registers: a
// fixed, non-serialized access latency.
type regsTarget struct {
	latency sim.Time
}

func (r *regsTarget) TargetName() string { return "ni-regs" }

func (r *regsTarget) HomeLatency(t *membus.Transaction, at sim.Time) sim.Time {
	return r.latency
}

// CatalogEntry is one row of the paper's Table 2.
type CatalogEntry struct {
	Kind        Kind
	Notation    string // the paper's NI_iX notation
	Description string
	SendSize    string // "Uncached" or "Block"
	SendManager string // "Processor" or "NI"
	SendSource  string
	RecvSize    string
	RecvManager string
	RecvDest    string
	BufLocation string
	ProcInvolve bool // processor involved in buffering?
}

// Catalog reproduces Table 2: the classification of the seven NIs by data
// transfer and buffering parameters.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{CM5, "NI_2w", "TMC CM-5 NI-like", "Uncached", "Processor", "Processor Registers",
			"Uncached", "Processor", "Processor Registers", "NI / VM", true},
		{UDMA, "NI_64w+Udma", "Princeton Udma-based", "Block", "NI", "Cache/Memory",
			"Block", "NI", "Memory", "NI / VM / Memory", true},
		{AP3000, "NI_16w+Blkbuf", "Fujitsu AP3000-like", "Block", "Processor", "Block Buffer",
			"Block", "Processor", "Block Buffer", "NI / VM", true},
		{StarTJR, "CNI_0Qm", "MIT StarT-JR-like", "Block", "NI", "Cache/Memory",
			"Block", "NI", "Memory", "Memory", false},
		{MemoryChannel, "(NI_16w+Blkbuf)_S(CNI_0Qm)_R", "DEC Memory Channel NI-like", "Block", "Processor", "Block Buffer",
			"Block", "NI", "Memory", "Memory", false},
		{CNI512Q, "CNI_512Q", "Wisconsin CNI with no cache", "Block", "NI", "Cache/Memory",
			"Block", "NI", "Processor Cache", "NI / VM", true},
		{CNI32Qm, "CNI_32Qm", "Wisconsin CNI with cache", "Block", "NI", "Cache/Memory",
			"Block", "NI", "Processor Cache", "NI Cache / Memory", false},
	}
}
