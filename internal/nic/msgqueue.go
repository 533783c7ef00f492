package nic

import "nisim/internal/netsim"

// queue is a FIFO over a reusable backing array. The old queues popped with
// q = q[1:], which strands consumed slots: append can never reuse them, so a
// long run reallocates and leaks the array forward indefinitely. Popping
// here advances a head index instead, and once the queue drains the array
// rewinds to its start — the steady state of a drain-as-fast-as-you-fill NI
// then never allocates. A full array slides its queued values down before
// it grows, so a queue that never drains stays bounded by its peak depth.
// Value-typed element queues (the coherent engine's send/receive entries)
// get the same property without per-entry boxing.
type queue[T any] struct {
	a    []T
	head int
}

func (q *queue[T]) push(v T) {
	if len(q.a) == cap(q.a) && q.head > 0 {
		// Full, with popped slots in front: slide the queued values down
		// instead of growing, so a queue that never drains stays bounded.
		n := copy(q.a, q.a[q.head:])
		clear(q.a[n:])
		q.a, q.head = q.a[:n], 0
	}
	q.a = append(q.a, v) //lint:allow noalloc head-rewind reuse keeps the backing array at peak depth; gated by TestComposedSendRecvAllocFree
}

func (q *queue[T]) len() int { return len(q.a) - q.head }

// items returns the queued values, oldest first, aliasing the queue.
func (q *queue[T]) items() []T { return q.a[q.head:] }

func (q *queue[T]) peek() T { return q.a[q.head] }

func (q *queue[T]) pop() T {
	var zero T
	v := q.a[q.head]
	q.a[q.head] = zero
	q.head++
	if q.head == len(q.a) {
		q.a = q.a[:0]
		q.head = 0
	}
	return v
}

// msgQueue is the message FIFO used by the fifo hardware's receive and
// bounce queues and the coherent engine's accept queue.
type msgQueue = queue[*netsim.Message]
