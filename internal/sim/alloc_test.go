// Alloc-count regression guards for the scheduler hot path. They run as
// plain tests (not just -bench) so CI catches a reintroduced per-event
// allocation. Race instrumentation changes allocation counts, so the file is
// excluded from -race runs.
//
//go:build !race

package sim

import (
	"testing"
	"time"
)

type nopRunner struct{ fired int }

func (r *nopRunner) Fire() { r.fired++ }

// AtTagged returns a cancellable Timer, which is the one unavoidable
// allocation on that path; the event itself must come from the pool.
func TestAtTaggedDispatchAllocs(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	// Warm the per-source stats, the event free list, and heap capacity.
	s.AtTagged("bench", s.Now().Add(time.Microsecond), fn)
	s.RunFor(time.Millisecond)

	avg := testing.AllocsPerRun(200, func() {
		s.AtTagged("bench", s.Now().Add(time.Microsecond), fn)
		s.RunFor(time.Millisecond)
	})
	if avg > 1 {
		t.Fatalf("AtTagged+dispatch = %.2f allocs/op, want ≤1 (the Timer handle)", avg)
	}
}

// The Runner path (AfterRunner) exists so hot paths can schedule with zero
// allocations: no closure, no Timer, pooled event.
func TestAtRunnerDispatchAllocs(t *testing.T) {
	s := NewScheduler(1)
	r := &nopRunner{}
	s.AfterRunner("bench", time.Microsecond, r)
	s.RunFor(time.Millisecond)

	avg := testing.AllocsPerRun(200, func() {
		s.AfterRunner("bench", time.Microsecond, r)
		s.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("AfterRunner+dispatch = %.2f allocs/op, want 0", avg)
	}
	if r.fired == 0 {
		t.Fatal("runner never fired")
	}
}
