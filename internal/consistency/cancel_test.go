package consistency

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/dtd"
)

func TestCheckContextCanceled(t *testing.T) {
	d := dtd.MustParse(geoDTD)
	set := constraint.MustParseSet(geoConstraints)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CheckContext(ctx, d, set, Options{})
	if err == nil {
		t.Fatalf("CheckContext with canceled context returned a verdict, want abort error")
	}
	if !Aborted(err) {
		t.Fatalf("Aborted(%v) = false", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(%v, context.Canceled) = false", err)
	}
}

func TestCheckContextLive(t *testing.T) {
	// A live context must not change the verdict.
	d := dtd.MustParse(geoDTD)
	set := constraint.MustParseSet(geoConstraints)
	res, err := CheckContext(context.Background(), d, set, Options{})
	if err != nil {
		t.Fatalf("CheckContext: %v", err)
	}
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict = %v, want Inconsistent", res.Verdict)
	}
}

func TestAbortErrorUnwrap(t *testing.T) {
	err := &AbortError{Err: context.DeadlineExceeded}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AbortError does not unwrap to its cause")
	}
	if !Aborted(err) {
		t.Fatalf("Aborted(AbortError) = false")
	}
	if Aborted(errors.New("other")) {
		t.Fatalf("Aborted(plain error) = true")
	}
	if Aborted(nil) {
		t.Fatalf("Aborted(nil) = true")
	}
}

// lateTimerContext is a context whose deadline has passed but whose
// timer has not run yet, as when a busy process has not scheduled the
// goroutine that cancels it: Err still reports nil.
type lateTimerContext struct{ context.Context }

func (lateTimerContext) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestCheckPastDeadlineBeforeTimer: a check that ends after its
// deadline aborts even when the context's timer has not fired yet.
func TestCheckPastDeadlineBeforeTimer(t *testing.T) {
	d := dtd.MustParse(geoDTD)
	set := constraint.MustParseSet(geoConstraints)
	_, err := CheckContext(lateTimerContext{context.Background()}, d, set, Options{})
	if !Aborted(err) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CheckContext past its deadline returned %v, want a deadline abort", err)
	}
}
