// Package stats collects per-node and machine-wide measurements: processor
// time attributed to compute, data transfer, and buffering (the breakdown
// behind the paper's Figure 1), bus-transaction counters, message-size
// histograms (Table 4), and flow-control bounce/retry counts.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"nisim/internal/sim"
)

// Processor-time categories. These are the values carried in
// sim.Process.Category; the zero value (Compute) is the default so that any
// unattributed blocked time counts as computation.
const (
	// Compute is application computation (including cache-miss stalls on
	// application data).
	Compute = iota
	// Transfer is processor time spent transferring message data to or from
	// the NI, or initiating such transfers: uncached loads/stores of message
	// words, block-buffer flush/load, queue reads/writes, UDMA initiation,
	// and messaging-layer copy/dispatch instructions.
	Transfer
	// Buffering is processor time stalled on buffering: waiting for a free
	// outgoing flow-control buffer, retrying bounced sends, and waiting to
	// drain NI buffers that would otherwise clog the network.
	Buffering
	numCategories
)

// Node accumulates statistics for a single machine node.
type Node struct {
	// TimeIn[c] is the processor time attributed to category c.
	TimeIn [numCategories]sim.Time

	// Bus transaction counters.
	BusTransactions   int64 // all transactions on this node's memory bus
	CacheToCache      int64 // blocks supplied cache-to-cache (incl. NI cache)
	MemToCache        int64 // blocks supplied to the processor cache by DRAM
	UncachedAccesses  int64 // uncached loads+stores
	BlockBufTransfers int64 // UltraSparc-style block load/store transfers

	// Messaging counters. Messages are application-level (post-reassembly);
	// fragments are the network messages the NI actually moved.
	MessagesSent      int64
	MessagesReceived  int64
	BytesSent         int64
	BytesReceived     int64
	FragmentsSent     int64
	FragmentsReceived int64

	// Flow control counters.
	Bounces int64 // messages returned to this sender
	Retries int64 // re-injections after a bounce

	// Fault-injection counters (what the fault plane did to this node's
	// traffic) and reliable-delivery counters (what the reliability layer
	// did about it).
	FaultDrops       int64 // data messages destroyed in flight
	FaultCorruptions int64 // messages corrupted in flight
	FaultDuplicates  int64 // messages duplicated in flight
	FaultDelays      int64 // messages given extra delivery jitter
	ForcedBounces    int64 // spurious returns forced by the fault plane
	CtlDrops         int64 // ack/bounce control messages destroyed
	Retransmits      int64 // timeout-driven re-injections (reliable delivery)
	CorruptDropped   int64 // arrivals discarded on checksum mismatch
	DupSuppressed    int64 // duplicate fragments discarded by the messaging layer
	DeliveryFailures int64 // sends abandoned after the retransmit limit

	// Admission-control counters (what this node's overload policy did to
	// arriving traffic; see nic.OverloadPolicy).
	AdmitDrops     int64 // arrivals destroyed at the admission watermark
	AdmitBounces   int64 // arrivals returned to sender at the watermark
	AdmitEvictions int64 // buffered messages evicted to admit newer ones
	AdmitFlaps     int64 // admit→refuse transitions (hysteresis engagements)

	// NI-specific counters.
	NICacheHits   int64 // processor receive fills supplied by the NI cache
	NICacheMisses int64 // receive fills that fell through to main memory
	NIBypasses    int64 // incoming messages written straight to memory (full cache)
	Prefetches    int64 // CNI send-side block prefetches
	Refetches     int64 // prefetched blocks fetched again (fetched too early)

	sizes *Histogram
}

// NewNode returns an empty node-statistics record.
func NewNode() *Node { return &Node{sizes: NewHistogram()} }

// Account adds blocked-processor time to a category. It is shaped to plug
// directly into sim.Process.OnBlocked.
func (n *Node) Account(category int, d sim.Time) {
	if category < 0 || category >= numCategories {
		category = Compute
	}
	n.TimeIn[category] += d
}

// RecordMessageSize records the total size in bytes (header + payload) of a
// sent message for the Table 4 histogram.
func (n *Node) RecordMessageSize(bytes int) { n.sizes.Add(bytes) }

// Sizes returns the message-size histogram.
func (n *Node) Sizes() *Histogram { return n.sizes }

// Machine aggregates statistics across all nodes of a simulated machine.
type Machine struct {
	Nodes []*Node
	// ExecTime is the parallel execution time: the time at which the last
	// application process finished.
	ExecTime sim.Time
}

// NewMachine returns a machine record with n empty node records.
func NewMachine(n int) *Machine {
	m := &Machine{Nodes: make([]*Node, n)}
	for i := range m.Nodes {
		m.Nodes[i] = NewNode()
	}
	return m
}

// Total returns a node record holding the sum over all nodes.
func (m *Machine) Total() *Node {
	t := NewNode()
	for _, n := range m.Nodes {
		for c := range n.TimeIn {
			t.TimeIn[c] += n.TimeIn[c]
		}
		t.BusTransactions += n.BusTransactions
		t.CacheToCache += n.CacheToCache
		t.MemToCache += n.MemToCache
		t.UncachedAccesses += n.UncachedAccesses
		t.BlockBufTransfers += n.BlockBufTransfers
		t.MessagesSent += n.MessagesSent
		t.MessagesReceived += n.MessagesReceived
		t.BytesSent += n.BytesSent
		t.BytesReceived += n.BytesReceived
		t.FragmentsSent += n.FragmentsSent
		t.FragmentsReceived += n.FragmentsReceived
		t.Bounces += n.Bounces
		t.Retries += n.Retries
		t.FaultDrops += n.FaultDrops
		t.FaultCorruptions += n.FaultCorruptions
		t.FaultDuplicates += n.FaultDuplicates
		t.FaultDelays += n.FaultDelays
		t.ForcedBounces += n.ForcedBounces
		t.CtlDrops += n.CtlDrops
		t.Retransmits += n.Retransmits
		t.CorruptDropped += n.CorruptDropped
		t.DupSuppressed += n.DupSuppressed
		t.DeliveryFailures += n.DeliveryFailures
		t.AdmitDrops += n.AdmitDrops
		t.AdmitBounces += n.AdmitBounces
		t.AdmitEvictions += n.AdmitEvictions
		t.AdmitFlaps += n.AdmitFlaps
		t.NICacheHits += n.NICacheHits
		t.NICacheMisses += n.NICacheMisses
		t.NIBypasses += n.NIBypasses
		t.Prefetches += n.Prefetches
		t.Refetches += n.Refetches
		t.sizes.Merge(n.sizes)
	}
	return t
}

// Fraction returns TimeIn[category] summed over nodes divided by total
// processor time (ExecTime × nodes). This is the Figure 1 metric: the share
// of execution time the machine spends in a category.
func (m *Machine) Fraction(category int) float64 {
	if m.ExecTime <= 0 || len(m.Nodes) == 0 {
		return 0
	}
	var in sim.Time
	for _, n := range m.Nodes {
		in += n.TimeIn[category]
	}
	return float64(in) / (float64(m.ExecTime) * float64(len(m.Nodes)))
}

// Metrics flattens the machine record into the flat name→value map the
// sweep result schema (internal/sweep) carries: execution time, the
// Figure 1 processor-time categories, and the machine-wide event counters.
// Counter families that are zero for a configuration (NI cache counters on
// fifo NIs, fault/reliability counters on lossless runs) are omitted, so
// the common configurations serialize compactly.
func (m *Machine) Metrics() map[string]float64 {
	t := m.Total()
	ms := map[string]float64{
		"exec_us":            m.ExecTime.Microseconds(),
		"nodes":              float64(len(m.Nodes)),
		"transfer_frac":      m.Fraction(Transfer),
		"buffering_frac":     m.Fraction(Buffering),
		"transfer_total_us":  t.TimeIn[Transfer].Microseconds(),
		"buffering_total_us": t.TimeIn[Buffering].Microseconds(),
		"messages":           float64(t.MessagesSent),
		"fragments":          float64(t.FragmentsSent),
		"bytes_sent":         float64(t.BytesSent),
		"bus_transactions":   float64(t.BusTransactions),
		"bounces":            float64(t.Bounces),
		"retries":            float64(t.Retries),
		"mean_msg_bytes":     t.Sizes().Mean(),
	}
	nonzero := func(name string, v int64) {
		if v != 0 {
			ms[name] = float64(v)
		}
	}
	nonzero("cache_to_cache", t.CacheToCache)
	nonzero("mem_to_cache", t.MemToCache)
	nonzero("uncached_accesses", t.UncachedAccesses)
	nonzero("ni_cache_hits", t.NICacheHits)
	nonzero("ni_cache_misses", t.NICacheMisses)
	nonzero("ni_bypasses", t.NIBypasses)
	nonzero("prefetches", t.Prefetches)
	nonzero("fault_drops", t.FaultDrops)
	nonzero("fault_corruptions", t.FaultCorruptions)
	nonzero("fault_duplicates", t.FaultDuplicates)
	nonzero("ctl_drops", t.CtlDrops)
	nonzero("retransmits", t.Retransmits)
	nonzero("dup_suppressed", t.DupSuppressed)
	nonzero("delivery_failures", t.DeliveryFailures)
	nonzero("admit_drops", t.AdmitDrops)
	nonzero("admit_bounces", t.AdmitBounces)
	nonzero("admit_evictions", t.AdmitEvictions)
	nonzero("admit_flaps", t.AdmitFlaps)
	return ms
}

// Quantiles accumulates latency samples for order-statistics reporting
// (the p50/p99 delivered-latency columns of the overload experiments).
// Samples are kept raw and sorted on demand, so quantiles are exact and the
// accumulation path is one append.
type Quantiles struct {
	samples []sim.Time
	sorted  bool
}

// Add records one sample.
func (q *Quantiles) Add(v sim.Time) {
	q.samples = append(q.samples, v)
	q.sorted = false
}

// Count returns the number of recorded samples.
func (q *Quantiles) Count() int { return len(q.samples) }

// Merge folds every sample of o into q. Quantiles are order statistics
// over the sorted sample set, so merge order cannot change any At result —
// which is what lets a partitioned run keep per-shard accumulators and
// merge them once at the end.
func (q *Quantiles) Merge(o *Quantiles) {
	if len(o.samples) == 0 {
		return
	}
	q.samples = append(q.samples, o.samples...)
	q.sorted = false
}

// At returns the p-quantile (p in [0, 1]) using the nearest-rank method,
// or 0 with no samples. At(0.5) is the median; At(0.99) the p99.
func (q *Quantiles) At(p float64) sim.Time {
	if len(q.samples) == 0 {
		return 0
	}
	if !q.sorted {
		sort.Slice(q.samples, func(i, j int) bool { return q.samples[i] < q.samples[j] })
		q.sorted = true
	}
	if p <= 0 {
		return q.samples[0]
	}
	rank := int(p*float64(len(q.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(q.samples) {
		rank = len(q.samples) - 1
	}
	return q.samples[rank]
}

// Histogram counts occurrences of integer values (message sizes in bytes).
type Histogram struct {
	counts map[int]int64
	total  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{counts: make(map[int]int64)} }

// Add records one occurrence of v.
func (h *Histogram) Add(v int) { h.counts[v]++; h.total++ } //lint:allow noalloc bucket population is bounded by the distinct message sizes a workload sends; repeats hit existing buckets

// Merge adds all of other's counts into h.
func (h *Histogram) Merge(other *Histogram) {
	for v, c := range other.counts {
		h.counts[v] += c
	}
	h.total += other.total
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int64 { return h.total }

// Count returns the number of occurrences of v.
func (h *Histogram) Count(v int) int64 { return h.counts[v] }

// Fraction returns the share of recorded values equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// Mean returns the average recorded value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum int64
	for v, n := range h.counts {
		sum += int64(v) * n
	}
	return float64(sum) / float64(h.total)
}

// Peaks returns the distinct values sorted by descending count, capped at n.
func (h *Histogram) Peaks(n int) []int {
	vals := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool {
		if h.counts[vals[i]] != h.counts[vals[j]] {
			return h.counts[vals[i]] > h.counts[vals[j]]
		}
		return vals[i] < vals[j]
	})
	if len(vals) > n {
		vals = vals[:n]
	}
	return vals
}

// String renders the histogram's top peaks with their shares.
func (h *Histogram) String() string {
	var b strings.Builder
	for _, v := range h.Peaks(6) {
		fmt.Fprintf(&b, "%dB:%.0f%% ", v, 100*h.Fraction(v))
	}
	return strings.TrimSpace(b.String())
}
