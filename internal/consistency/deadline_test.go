package consistency_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/experiments"
	"repro/internal/ilp"
)

// TestDeadlineInsideLP pins the abort latency on a Fig3PDE instance
// whose search spends nearly all its time inside single long LP
// relaxations (the n=4 draw from seed 1000003*262+17). A poll between
// branch-and-bound nodes alone lets such an LP overrun the deadline by
// seconds, so both simplex loops must poll as they pivot.
func TestDeadlineInsideLP(t *testing.T) {
	in, ok := experiments.Fig3PDE(rand.New(rand.NewSource(1000003*262+17)), 4)
	if !ok {
		t.Fatal("Fig3PDE draw did not yield a decided instance")
	}
	const deadline = 300 * time.Millisecond
	for _, rat := range []bool{false, true} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := consistency.CheckContext(ctx, in.D, in.Set, consistency.Options{ILP: ilp.Options{ForceRatLP: rat}})
		elapsed := time.Since(start)
		cancel()
		var abort *consistency.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("ForceRatLP=%v: err = %v, want *AbortError", rat, err)
		}
		if elapsed > deadline+time.Second {
			t.Errorf("ForceRatLP=%v: abort took %v under a %v deadline", rat, elapsed, deadline)
		}
	}
}
