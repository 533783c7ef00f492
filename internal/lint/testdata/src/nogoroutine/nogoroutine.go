// Package nogoroutine exercises the nogoroutine pass: model code must not
// spawn goroutines or use channels, select, or sync — the event loop is
// single-threaded by design.
package nogoroutine

import "sync" // want `import of sync`

// Model smuggles concurrency primitives into model state.
type Model struct {
	mu sync.Mutex
	q  chan int // want `channel type`
}

func spawn(work func()) {
	go work() // want `goroutine outside the partition layer`
}

func pipe(c chan int) { // want `channel type`
	c = make(chan int, 1) // want `channel type`
	c <- 1                // want `channel send`
	v := <-c              // want `channel receive`
	_ = v
	close(c) // want `channel close`
}

func wait(c chan int) { // want `channel type`
	select { // want `select outside the partition layer`
	case <-c: // want `channel receive`
	}
}

func drain(c chan int) int { // want `channel type`
	n := 0
	for v := range c { // want `range over channel`
		n += v
	}
	return n
}

// plainLoops shows ordinary single-threaded model code: accepted.
func plainLoops(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
