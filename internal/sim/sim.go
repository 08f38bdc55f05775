// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every moving part of the simulated smart home — device behaviours, protocol
// timers, scan probes — runs as events on a single virtual clock. This keeps
// multi-day traffic traces reproducible (a fixed seed yields byte-identical
// captures) and fast: five simulated days execute in well under a second.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"iotlan/internal/engine"
	"iotlan/internal/obs"
)

// Epoch is the virtual time at which every simulation starts. A fixed epoch
// (rather than the wall clock) keeps timestamps in captures deterministic.
var Epoch = time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)

// Runner is a pre-bound event callback. Hot paths that would otherwise
// allocate a fresh closure per scheduled event (the LAN's per-frame delivery
// events, tens of thousands per simulated minute) implement Runner on a
// pooled struct and schedule it with AtRunner/AfterRunner instead.
type Runner interface {
	// Fire runs the event. It executes in simulation-event context.
	Fire()
}

// Event is a unit of scheduled work. Events are pooled: after dispatch (or
// cancelled pop) the struct returns to the scheduler's free list and is
// reused by a later schedule under a fresh seq, which is what lets stale
// Timer handles detect that "their" event is gone.
type event struct {
	at  time.Time
	seq uint64 // tie-breaker: FIFO among equal timestamps; also the Timer generation
	fn  func()
	run Runner    // exactly one of fn/run is set on a live event
	st  *srcStats // per-source telemetry handles, resolved at schedule time
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// srcStats caches the per-source counter handles so neither the dispatch
// loop nor the tracer ever touches the registry's mutex-guarded maps. It is
// resolved once per schedule call and rides on the event.
type srcStats struct {
	name      string
	processed *obs.Counter
	cancelled *obs.Counter
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated work runs inside Run on the caller's
// goroutine, which is exactly what makes traces deterministic.
type Scheduler struct {
	now     time.Time
	seq     uint64
	seed    int64
	events  eventHeap
	rng     *rand.Rand
	stopped bool

	// Processed counts executed events, mostly for tests and stats output.
	Processed uint64
	// Cancelled counts events that were popped already cancelled (their
	// Timer was stopped before they fired).
	Cancelled uint64

	// Telemetry is the simulation-wide metrics/tracing hub. Every layer
	// reaches it through the scheduler it already holds.
	Telemetry *obs.Telemetry

	gQueue   *obs.Gauge
	bySource map[string]*srcStats

	// free is the event free list. The sim is single-threaded, so a plain
	// slice (no sync.Pool) is both faster and deterministic.
	free []*event
}

// NewScheduler returns a scheduler whose clock starts at Epoch and whose
// random stream is derived from seed.
func NewScheduler(seed int64) *Scheduler {
	tel := obs.NewTelemetry()
	return &Scheduler{
		now:       Epoch,
		seed:      seed,
		rng:       rand.New(rand.NewSource(seed)),
		Telemetry: tel,
		gQueue:    tel.Registry.Gauge("sim_queue_depth"),
		bySource:  make(map[string]*srcStats),
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Rand exposes the scheduler's deterministic random stream. All simulated
// jitter must come from here so that a seed fully determines a run.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Seed returns the seed the scheduler was built with.
func (s *Scheduler) Seed() int64 { return s.seed }

// SubRand derives an independent deterministic random stream from the
// scheduler's seed. Layers that consume randomness out-of-band (fault
// injection, dataset generators) draw from their own stream so enabling them
// never perturbs the base simulation's random sequence.
func (s *Scheduler) SubRand(stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(engine.SubSeed(s.seed, stream)))
}

// VirtualMicros is the current virtual time in microseconds since Epoch —
// the timestamp unit trace records use.
func (s *Scheduler) VirtualMicros() int64 { return s.now.Sub(Epoch).Microseconds() }

// TraceEvent records a zero-duration span stamped with the current virtual
// time, as a child of the running study phase's span. It is free when no
// phase is traced.
func (s *Scheduler) TraceEvent(cat, name string, args ...string) {
	if t := s.Telemetry; t.Phase != nil {
		t.Tracer.RecordSpan(t.Phase, cat, name, s.VirtualMicros(), 0, args...)
	}
}

// Tracing reports whether a phase is traced, so callers can skip building
// argument strings otherwise.
func (s *Scheduler) Tracing() bool { return s.Telemetry.Phase != nil }

func (s *Scheduler) stats(source string) *srcStats {
	st, ok := s.bySource[source]
	if !ok {
		st = &srcStats{
			name:      source,
			processed: s.Telemetry.Registry.Counter("sim_events_processed", "source", source),
			cancelled: s.Telemetry.Registry.Counter("sim_events_cancelled", "source", source),
		}
		s.bySource[source] = st
	}
	return st
}

// schedule is the single enqueue path: it pulls an event off the free list
// (or allocates one), stamps it with a fresh seq, and pushes it on the heap.
// The per-source stats handles are resolved here, at schedule time, so the
// dispatch loop never does a map lookup.
func (s *Scheduler) schedule(source string, at time.Time, fn func(), run Runner) *event {
	if at.Before(s.now) {
		at = s.now
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*ev = event{at: at, seq: s.seq, fn: fn, run: run, st: s.stats(source)}
	} else {
		ev = &event{at: at, seq: s.seq, fn: fn, run: run, st: s.stats(source)}
	}
	s.seq++
	heap.Push(&s.events, ev)
	return ev
}

// recycle clears an event and returns it to the free list. The seq it held
// stays behind on the struct until reuse; Timer.Stop compares seqs, so a
// stale handle either finds nil callbacks (harmless) or a mismatched seq.
func (s *Scheduler) recycle(ev *event) {
	ev.fn, ev.run, ev.st = nil, nil, nil
	s.free = append(s.free, ev)
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	ev *event
	// seq is the generation of ev this handle refers to. Events are pooled;
	// once ev has been recycled and reused its seq no longer matches and
	// Stop becomes a no-op on it instead of cancelling a stranger's event.
	seq uint64
	// stopped latches cancellation so recurring timers (Every) stop even
	// when Stop is called from inside their own callback, where ev already
	// points at the event being dispatched.
	stopped bool
}

// Stop cancels the timer. It is safe to call on an already-fired timer, and
// on a recurring timer it cancels all future recurrences.
func (t *Timer) Stop() {
	if t == nil {
		return
	}
	t.stopped = true
	if t.ev != nil && t.ev.seq == t.seq {
		t.ev.fn, t.ev.run = nil, nil
	}
}

// At schedules fn to run at the given virtual time. Times in the past run at
// the current time (next dispatch).
func (s *Scheduler) At(at time.Time, fn func()) *Timer {
	return s.AtTagged("other", at, fn)
}

// AtTagged is At with a telemetry source tag: dispatches are counted under
// sim_events_processed{source=...}.
func (s *Scheduler) AtTagged(source string, at time.Time, fn func()) *Timer {
	ev := s.schedule(source, at, fn, nil)
	return &Timer{ev: ev, seq: ev.seq}
}

// AtRunner schedules a pre-bound Runner at the given virtual time. Unlike
// AtTagged it returns no Timer and allocates nothing in steady state (the
// event comes from the pool), which is why frame-delivery hot paths use it.
func (s *Scheduler) AtRunner(source string, at time.Time, r Runner) {
	s.schedule(source, at, nil, r)
}

// AfterRunner schedules a pre-bound Runner d after the current virtual time.
func (s *Scheduler) AfterRunner(source string, d time.Duration, r Runner) {
	s.schedule(source, s.now.Add(d), nil, r)
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	return s.AtTagged("other", s.now.Add(d), fn)
}

// AfterTagged is After with a telemetry source tag.
func (s *Scheduler) AfterTagged(source string, d time.Duration, fn func()) *Timer {
	return s.AtTagged(source, s.now.Add(d), fn)
}

// Every schedules fn to run now+first and then every period thereafter, with
// ±jitter applied to each recurrence (0 disables jitter). It returns a Timer
// whose Stop cancels future recurrences.
func (s *Scheduler) Every(first, period, jitter time.Duration, fn func()) *Timer {
	return s.EveryTagged("other", first, period, jitter, fn)
}

// EveryTagged is Every with a telemetry source tag.
func (s *Scheduler) EveryTagged(source string, first, period, jitter time.Duration, fn func()) *Timer {
	handle := &Timer{}
	var tick func()
	tick = func() {
		if handle.stopped { // stopped from within an earlier tick
			return
		}
		fn()
		if handle.stopped { // stopped from within fn itself
			return
		}
		d := period
		if jitter > 0 {
			d += time.Duration(s.rng.Int63n(int64(2*jitter))) - jitter
			if d <= 0 {
				d = period
			}
		}
		ev := s.schedule(source, s.now.Add(d), tick, nil)
		handle.ev, handle.seq = ev, ev.seq
	}
	ev := s.schedule(source, s.now.Add(first), tick, nil)
	handle.ev, handle.seq = ev, ev.seq
	return handle
}

// Stop halts Run after the current event.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events in timestamp order until the virtual clock passes
// until, the event queue drains, or Stop is called. It returns the number of
// events executed.
func (s *Scheduler) Run(until time.Time) uint64 {
	start := s.Processed
	s.stopped = false
	tracing := s.Tracing()
	for !s.stopped && s.dispatch(until, tracing) {
	}
	// The queue-depth gauge is batched: one Set per Run call instead of one
	// per push/pop. The sim is single-threaded, so mid-run intermediate
	// depths were never observable from a consistent point anyway.
	s.gQueue.Set(int64(len(s.events)))
	if s.now.Before(until) {
		s.now = until
	}
	return s.Processed - start
}

// Step pops and executes the single earliest live event at or before until,
// skipping (and recycling) cancelled events it passes on the way. It returns
// true when a live event ran, false when the queue holds nothing runnable
// before until. Unlike Run it never advances the clock past the event it
// executed — external drivers (the vnet pump) interleave app goroutine
// rendezvous between events and need the clock parked meanwhile.
func (s *Scheduler) Step(until time.Time) bool {
	ran := s.dispatch(until, s.Tracing())
	s.gQueue.Set(int64(len(s.events)))
	return ran
}

// dispatch is the one dispatch body behind Run and Step: it pops events due
// by until, counting and recycling cancelled ones, until it has run one
// live event. It reports whether it ran one. Callers read tracing once per
// Run or Step, which keeps that load off the per-event path.
func (s *Scheduler) dispatch(until time.Time, tracing bool) bool {
	for len(s.events) > 0 {
		ev := s.events[0]
		if ev.at.After(until) {
			return false
		}
		heap.Pop(&s.events)
		if ev.fn == nil && ev.run == nil { // cancelled
			s.Cancelled++
			ev.st.cancelled.Inc()
			s.recycle(ev)
			continue
		}
		s.now = ev.at
		fn, run, st := ev.fn, ev.run, ev.st
		ev.fn, ev.run = nil, nil
		if tracing {
			s.TraceEvent("sim", "dispatch", "source", st.name)
		}
		if run != nil {
			run.Fire()
		} else {
			fn()
		}
		s.Processed++
		st.processed.Inc()
		s.recycle(ev)
		return true
	}
	return false
}

// AdvanceTo moves the clock forward to t without executing events. Times in
// the past are ignored. Step-based drivers call it once they are done
// stepping, mirroring how Run leaves the clock at its until argument.
func (s *Scheduler) AdvanceTo(t time.Time) {
	if t.After(s.now) {
		s.now = t
	}
}

// RunFor runs the simulation for a virtual duration from the current time.
func (s *Scheduler) RunFor(d time.Duration) uint64 { return s.Run(s.now.Add(d)) }

// Pending reports the number of queued (possibly cancelled) events.
func (s *Scheduler) Pending() int { return len(s.events) }

// String implements fmt.Stringer for debug output.
func (s *Scheduler) String() string {
	return fmt.Sprintf("sim.Scheduler{now=%s pending=%d processed=%d cancelled=%d}",
		s.now.Format(time.RFC3339), len(s.events), s.Processed, s.Cancelled)
}
