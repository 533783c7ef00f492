package lint_test

import (
	"testing"

	"nisim/internal/lint"
	"nisim/internal/lint/analysistest"
)

func TestNoGoroutine(t *testing.T) {
	// The second fixture stands in for the sim kernel itself: the kernel
	// has no exemption, so its goroutine and channel are findings. The
	// third stands in for the sweep orchestrator, exercising the restricted
	// mode: its worker-pool goroutines are accepted, but goroutines that
	// reach the simulator are still rejected. The fourth is the partition
	// layer — shard worker goroutines and sync/atomic are its subject
	// matter, so it is the one package the pass skips.
	analysistest.Run(t, "testdata", lint.NoGoroutine, "nogoroutine", "internal/sim", "sweep", "internal/sim/partition")
}
