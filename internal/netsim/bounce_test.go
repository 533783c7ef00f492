package netsim

import (
	"testing"

	"nisim/internal/sim"
	"nisim/internal/stats"
)

// bounceRun injects one message at a receiver whose single in-buffer is
// held until release, and returns the sender's counters and the accept time
// of the bounced message.
func bounceRun(t *testing.T, cfg Config, release sim.Time) (*stats.Node, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	nw := New(eng, cfg, 2, 1)
	st := stats.NewNode()
	sender, recv := nw.Endpoint(0), nw.Endpoint(1)
	sender.Stats = st
	var acceptedAt []sim.Time
	recv.OnAccept = func(m *Message) { acceptedAt = append(acceptedAt, eng.Now()) }
	// First message occupies the receiver's only in-buffer.
	if !sender.TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.Run()
	if len(acceptedAt) != 1 {
		t.Fatal("setup message not accepted")
	}
	// Second message bounces until the buffer is released.
	if !sender.TryAcquireOut() {
		t.Fatal("no credit after first ack")
	}
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.AfterEvent(release, func(any, uint64) { recv.ReleaseIn() }, nil, 0)
	eng.Run()
	if len(acceptedAt) != 2 {
		t.Fatalf("bounced message never accepted (%d accepts)", len(acceptedAt))
	}
	return st, acceptedAt[1]
}

func TestBounceBackoffRetryOrdering(t *testing.T) {
	st, acceptedAt := bounceRun(t, DefaultConfig(), 5*sim.Microsecond)
	// Every bounce schedules exactly one hardware retry, and the final
	// retry is the accepted injection: counts must match.
	if st.Bounces == 0 || st.Bounces != st.Retries {
		t.Fatalf("bounces=%d retries=%d, want equal and nonzero", st.Bounces, st.Retries)
	}
	// No retry can be accepted before the buffer is released.
	if acceptedAt <= 5*sim.Microsecond {
		t.Fatalf("accepted at %v, before the buffer released", acceptedAt)
	}
}

func TestBounceBackoffGrows(t *testing.T) {
	// With a growing backoff (RetryBase×attempts), retries thin out over a
	// long contention window: strictly fewer attempts than a constant
	// minimum backoff would produce over the same window.
	cfg := DefaultConfig()
	cfg.RetryBase = 100 * sim.Nanosecond
	cfg.RetryCap = 50 * sim.Microsecond // effectively uncapped in the window
	growing, _ := bounceRun(t, cfg, 20*sim.Microsecond)

	capped := cfg
	capped.RetryCap = 100 * sim.Nanosecond // backoff pinned at the base
	constant, _ := bounceRun(t, capped, 20*sim.Microsecond)

	if growing.Retries >= constant.Retries {
		t.Fatalf("growing backoff retried %d times, constant backoff %d — backoff not growing",
			growing.Retries, constant.Retries)
	}
}

func TestBounceBackoffCapHonored(t *testing.T) {
	// A tiny RetryCap bounds the inter-retry gap: over a fixed window the
	// retry count must reach at least window/(cap + round trip), which an
	// uncapped linear backoff cannot.
	cfg := DefaultConfig()
	cfg.RetryBase = 1 * sim.Microsecond
	cfg.RetryCap = 200 * sim.Nanosecond
	st, _ := bounceRun(t, cfg, 20*sim.Microsecond)
	// Round trip ≈ 128ns; cap 200ns → ≥ 50 retries in 20us. Uncapped linear
	// backoff at 1us base would manage at most ~6.
	if st.Retries < 40 {
		t.Fatalf("retries = %d under a 200ns cap, want >= 40 (cap not honored)", st.Retries)
	}
}

func TestSoftwareRetryUnderContention(t *testing.T) {
	// The OnBounce variant: software owns the retry. With the receiver's
	// single buffer held, the bounced message parks in the software queue;
	// after release, a re-push delivers it.
	eng := sim.NewEngine()
	nw := New(eng, DefaultConfig(), 2, 1)
	st := stats.NewNode()
	sender, recv := nw.Endpoint(0), nw.Endpoint(1)
	sender.Stats = st
	var queue []*Message
	sender.OnBounce = func(m *Message) { queue = append(queue, m) }
	delivered := 0
	recv.OnAccept = func(m *Message) { delivered++ }
	if !sender.TryAcquireOut() {
		t.Fatal("no out buffer")
	}
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(NewSized(0, 1, 0, 8)) }, nil, 0)
	eng.Run()
	if delivered != 1 {
		t.Fatal("setup message not accepted")
	}
	if !sender.TryAcquireOut() {
		t.Fatal("no credit after first ack")
	}
	m2 := NewSized(0, 1, 0, 8)
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(m2) }, nil, 0)
	eng.Run()
	if len(queue) != 1 || queue[0] != m2 {
		t.Fatalf("software bounce queue = %v", queue)
	}
	if st.Retries != 0 {
		t.Fatal("hardware retry ran despite OnBounce")
	}
	// Software services the queue after the receiver frees its buffer; the
	// bounced message still holds its outgoing buffer across the re-push.
	if sender.OutFree() != 0 {
		t.Fatalf("bounced message released its out buffer early: %d free", sender.OutFree())
	}
	recv.ReleaseIn()
	eng.AfterEvent(0, func(any, uint64) { sender.Inject(queue[0]) }, nil, 0)
	eng.Run()
	if delivered != 2 {
		t.Fatalf("re-pushed message never accepted (delivered=%d)", delivered)
	}
	if sender.OutFree() != 1 {
		t.Fatalf("out buffer not freed after re-push ack: %d free", sender.OutFree())
	}
}
