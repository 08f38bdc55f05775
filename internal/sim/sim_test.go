package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.RunFor(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	at := s.Now().Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		s.AtTagged("other", at, func() { order = append(order, i) })
	}
	s.RunFor(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	s := NewScheduler(1)
	var seen time.Time
	s.After(90*time.Minute, func() { seen = s.Now() })
	s.RunFor(2 * time.Hour)
	want := Epoch.Add(90 * time.Minute)
	if !seen.Equal(want) {
		t.Fatalf("event saw clock %v, want %v", seen, want)
	}
	if !s.Now().Equal(Epoch.Add(2 * time.Hour)) {
		t.Fatalf("clock after RunFor = %v, want %v", s.Now(), Epoch.Add(2*time.Hour))
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	tm.Stop()
	s.RunFor(5 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestEveryRecursAndStops(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	tm := s.EveryTagged("other", time.Second, time.Second, 0, func() { n++ })
	s.RunFor(5500 * time.Millisecond)
	if n != 5 {
		t.Fatalf("Every fired %d times, want 5", n)
	}
	tm.Stop()
	s.RunFor(10 * time.Second)
	if n != 5 {
		t.Fatalf("Every fired after Stop: %d", n)
	}
}

// A stopped Every recurrence must not fire and must be accounted as a
// cancelled event, not a processed one.
func TestEveryStopCountsCancelledNotProcessed(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	tm := s.EveryTagged("test", time.Second, time.Second, 0, func() { n++ })
	s.RunFor(3500 * time.Millisecond)
	if n != 3 {
		t.Fatalf("Every fired %d times before Stop, want 3", n)
	}
	processedBefore := s.Processed
	tm.Stop()
	s.RunFor(10 * time.Second)
	if n != 3 {
		t.Fatalf("Every fired after Stop: %d", n)
	}
	if s.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1 (the pending recurrence)", s.Cancelled)
	}
	if s.Processed != processedBefore {
		t.Fatalf("cancelled recurrence counted as processed (%d → %d)",
			processedBefore, s.Processed)
	}
	reg := s.Telemetry.Registry
	if got := reg.CounterValue("sim_events_cancelled{source=test}"); got != 1 {
		t.Fatalf("sim_events_cancelled{source=test} = %d, want 1", got)
	}
	if got := reg.CounterValue("sim_events_processed{source=test}"); got != 3 {
		t.Fatalf("sim_events_processed{source=test} = %d, want 3", got)
	}
}

// Stopping a recurring timer from inside its own callback must halt the
// recurrence: the in-flight tick already rescheduled nothing.
func TestEveryStopFromInsideCallback(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	var tm *Timer
	tm = s.EveryTagged("other", time.Second, time.Second, 0, func() {
		n++
		if n == 2 {
			tm.Stop()
		}
	})
	s.RunFor(time.Minute)
	if n != 2 {
		t.Fatalf("Every fired %d times, want exactly 2 (stopped inside tick)", n)
	}
	if s.Pending() != 0 {
		t.Fatalf("stopped recurrence left %d events queued", s.Pending())
	}
}

func TestSchedulerSourceAccounting(t *testing.T) {
	s := NewScheduler(1)
	s.AfterTagged("lan", time.Second, func() {})
	s.AfterTagged("lan", 2*time.Second, func() {})
	s.After(3*time.Second, func() {}) // untagged → "other"
	s.RunFor(time.Minute)
	reg := s.Telemetry.Registry
	if got := reg.CounterValue("sim_events_processed{source=lan}"); got != 2 {
		t.Fatalf("lan-source events = %d, want 2", got)
	}
	if got := reg.CounterValue("sim_events_processed{source=other}"); got != 1 {
		t.Fatalf("other-source events = %d, want 1", got)
	}
	if got := reg.Total("sim_events_processed"); got != s.Processed {
		t.Fatalf("registry total %d != Processed %d", got, s.Processed)
	}
}

func TestEveryJitterStaysPositive(t *testing.T) {
	s := NewScheduler(42)
	n := 0
	s.EveryTagged("other", time.Millisecond, 10*time.Millisecond, 9*time.Millisecond, func() { n++ })
	s.RunFor(time.Second)
	if n < 50 || n > 1200 {
		t.Fatalf("jittered Every fired %d times, outside sane range", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := NewScheduler(7)
		var ticks []int64
		s.EveryTagged("other", 0, time.Minute, 30*time.Second, func() {
			ticks = append(ticks, s.Now().Sub(Epoch).Milliseconds())
		})
		s.RunFor(time.Hour)
		return ticks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different run lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPastEventsRunImmediately(t *testing.T) {
	s := NewScheduler(1)
	s.RunFor(time.Hour)
	fired := false
	s.AtTagged("other", Epoch, func() { fired = true }) // in the past now
	s.RunFor(time.Nanosecond)
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
}

// Property: for any set of non-negative delays, Run dispatches them in
// non-decreasing timestamp order.
func TestQuickOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(3)
		var fired []time.Time
		for _, d := range delays {
			s.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.RunFor(time.Hour)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerDispatch(b *testing.B) {
	b.Run("AtTagged", func(b *testing.B) {
		s := NewScheduler(1)
		fn := func() {}
		s.AtTagged("bench", s.Now(), fn)
		s.RunFor(time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AtTagged("bench", s.Now().Add(time.Microsecond), fn)
			s.RunFor(time.Millisecond)
		}
	})
	b.Run("AfterRunner", func(b *testing.B) {
		s := NewScheduler(1)
		r := &benchRunner{}
		s.AfterRunner("bench", 0, r)
		s.RunFor(time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AfterRunner("bench", time.Microsecond, r)
			s.RunFor(time.Millisecond)
		}
	})
}

type benchRunner struct{ fired int }

func (r *benchRunner) Fire() { r.fired++ }

// propEvent is one dispatch the order property expects: at is the clamped
// time the event was scheduled for, id its place in schedule order.
type propEvent struct {
	at      time.Time
	id      int
	fired   int
	stopped bool
}

// propHandle is a Timer the property may Stop, with the event it would
// cancel: an AtTagged/After event, or an EveryTagged handle's pending
// recurrence.
type propHandle struct {
	tm      *Timer
	pending *propEvent
	stopped bool
}

// orderProp drives a scheduler with a random schedule and checks every
// dispatch against the model.
type orderProp struct {
	t       *testing.T
	rng     *rand.Rand
	s       *Scheduler
	events  []*propEvent
	handles []*propHandle
	last    *propEvent
	// draining stops callbacks from scheduling: the final run only
	// dispatches what is queued.
	draining bool
}

// expect records an event scheduled now for at, clamped as the scheduler
// clamps past times.
func (p *orderProp) expect(at time.Time) *propEvent {
	if at.Before(p.s.Now()) {
		at = p.s.Now()
	}
	ev := &propEvent{at: at, id: len(p.events)}
	p.events = append(p.events, ev)
	return ev
}

// fire checks one dispatch: a live event, fired once, at its own time, and
// after the previous dispatch in (at, seq) order.
func (p *orderProp) fire(ev *propEvent) {
	p.t.Helper()
	switch {
	case ev.stopped:
		p.t.Fatalf("event %d fired after its timer was stopped", ev.id)
	case ev.fired > 0:
		p.t.Fatalf("event %d fired twice", ev.id)
	case !p.s.Now().Equal(ev.at):
		p.t.Fatalf("event %d fired with Now() = %v, scheduled for %v", ev.id, p.s.Now(), ev.at)
	case p.last != nil && (ev.at.Before(p.last.at) || ev.at.Equal(p.last.at) && ev.id < p.last.id):
		p.t.Fatalf("event %d (at %v) fired after event %d (at %v)", ev.id, ev.at, p.last.id, p.last.at)
	}
	ev.fired++
	p.last = ev
}

// delay is a schedule offset drawn from a few values, so equal timestamps
// are common; negative offsets are past times.
func (p *orderProp) delay() time.Duration {
	return time.Duration(p.rng.Intn(7)-2) * 10 * time.Millisecond
}

// schedule adds one event through AtTagged, After or AfterRunner.
func (p *orderProp) schedule() {
	at := p.s.Now().Add(p.delay())
	ev := p.expect(at)
	fn := func() { p.fire(ev); p.nested() }
	var tm *Timer
	switch p.rng.Intn(3) {
	case 0:
		tm = p.s.AtTagged("other", at, fn)
	case 1:
		tm = p.s.After(at.Sub(p.s.Now()), fn)
	default:
		p.s.AfterRunner("prop", at.Sub(p.s.Now()), runnerFunc(fn))
	}
	if tm != nil {
		p.handles = append(p.handles, &propHandle{tm: tm, pending: ev})
	}
}

// every adds a recurring timer. EveryTagged schedules the next tick after fn
// returns, so the model expects it last in the callback.
func (p *orderProp) every() {
	first := time.Duration(p.rng.Intn(4)) * 10 * time.Millisecond
	period := time.Duration(1+p.rng.Intn(3)) * 10 * time.Millisecond
	h := &propHandle{pending: p.expect(p.s.Now().Add(first))}
	h.tm = p.s.EveryTagged("other", first, period, 0, func() {
		p.fire(h.pending)
		p.nested()
		if !h.stopped {
			h.pending = p.expect(p.s.Now().Add(period))
		}
	})
	p.handles = append(p.handles, h)
}

// stop stops a random handle, possibly one already fired or stopped, or
// the recurring timer whose callback is running.
func (p *orderProp) stop() {
	if len(p.handles) == 0 {
		return
	}
	h := p.handles[p.rng.Intn(len(p.handles))]
	h.tm.Stop()
	h.stopped = true
	if h.pending.fired == 0 {
		h.pending.stopped = true
	}
}

// nested is what a callback does: schedule more events, some for now or
// the past, and stop timers.
func (p *orderProp) nested() {
	if p.draining || len(p.events) > 3000 {
		return
	}
	for n := p.rng.Intn(3); n > 0; n-- {
		switch p.rng.Intn(4) {
		case 0, 1:
			p.schedule()
		case 2:
			p.stop()
		default:
			if p.rng.Intn(8) == 0 {
				p.every()
			}
		}
	}
}

type runnerFunc func()

func (f runnerFunc) Fire() { f() }

// Random AtTagged/After/AfterRunner/EveryTagged schedules, with equal timestamps, past
// times, Timer.Stop from inside callbacks and interleaved Run and Step
// calls, dispatch every live event once, in (at, seq) order, with Now()
// at the event's time; no stopped event fires.
func TestDispatchOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		p := &orderProp{t: t, rng: rand.New(rand.NewSource(seed)), s: NewScheduler(seed)}
		for i := 0; i < 80; i++ {
			switch p.rng.Intn(6) {
			case 0, 1:
				p.schedule()
			case 2:
				p.every()
			case 3:
				p.stop()
			case 4:
				until := p.s.Now().Add(p.delay())
				want := p.s.Now()
				if until.After(want) {
					want = until
				}
				p.s.Run(until)
				if !p.s.Now().Equal(want) {
					t.Fatalf("seed %d: Run(%v) left the clock at %v", seed, until, p.s.Now())
				}
			default:
				until := p.s.Now().Add(p.delay())
				for n := p.rng.Intn(6); n > 0 && p.s.Step(until); n-- {
				}
			}
		}
		p.draining = true
		for _, h := range p.handles {
			h.tm.Stop()
			h.stopped = true
			if h.pending.fired == 0 {
				h.pending.stopped = true
			}
		}
		p.s.RunFor(time.Hour)
		for _, ev := range p.events {
			if !ev.stopped && ev.fired != 1 {
				t.Fatalf("seed %d: event %d (at %v) fired %d times", seed, ev.id, ev.at, ev.fired)
			}
		}
	}
}
