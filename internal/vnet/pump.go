// Package vnet adapts the callback-push surface of internal/stack into the
// standard library's net shape — net.Conn, net.Listener and a DialContext —
// so ordinary blocking networked code, including an unmodified
// net/http.Server, runs inside the deterministic simulation with zero real
// sockets.
//
// # Determinism discipline
//
// The simulation kernel is single-threaded: every stack callback fires
// inside a scheduler event. Blocking net code is the opposite — a goroutine
// per connection, each parked in Read/Write/Accept most of the time. The
// Pump reconciles the two:
//
//   - One pump goroutine owns the scheduler. App goroutines never touch the
//     stack directly; every operation is a closure submitted to the pump and
//     executed there, which gives all operations a single total order and
//     keeps the stack lock-free.
//   - Compute grants gate the virtual clock. Completing a blocking
//     operation grants the woken goroutine "compute with the clock frozen";
//     entering its next operation returns the grant. The pump only advances
//     virtual time (dispatches the next simulation event) when no goroutine
//     holds a grant, so app compute takes zero virtual time and the event
//     order cannot depend on how fast the real CPU ran a handler — the same
//     contract engine.Map makes for analysis workers, applied to I/O.
//   - A grant belongs to one goroutine, identified by the runtime's goroutine
//     id captured as it enters an operation. Only the holder's next
//     operation returns it: a goroutine that was never granted cannot
//     return somebody else's grant and let the clock move under a goroutine
//     that is still computing. net/http is the standing example: once a
//     request body is consumed its server parks a fresh goroutine in a
//     one-byte background Read while the handler keeps computing, and the
//     goroutine that closes a connection after reading EOF holds no grant.
//   - Completions that typically precede a goroutine's exit (EOF, ErrClosed,
//     connection reset, Close itself) grant nothing: a goroutine that
//     unwinds and dies after an error must not freeze the clock forever.
//   - Spawning is granted too. Go mints a grant the new actor adopts before
//     running, and an Accept completion mints one for whichever goroutine
//     serves the accepted connection — the first operation on that
//     connection claims it — so a connection goroutine's compute up to its
//     first operation is clock-frozen like any other.
//
// Known slack, accepted and bounded: a goroutine computing without a grant
// (spawned by plain go, woken from a plain channel, or continuing after a
// terminal error) races the clock for the length of that compute stretch.
// The pump yields through several settle rounds before every clock step so
// such goroutines almost always get their next operation in first, and a
// real-time stall valve (plus the vnet_grant_resets counter making it
// observable) recovers a leaked grant — one whose holder exited, or waits
// on something other than the pump — instead of deadlocking. Work handed
// across a plain channel and waited on (a worker pool) is such a wait: the
// waiter keeps its grant while the worker runs ungranted, so deterministic
// in-sim code runs that work on the granted goroutine itself — iotserve
// processes every upload on its request goroutine. Content-level results —
// served artifacts, response bodies — are deterministic regardless, because
// the serving pipeline's outputs don't depend on segment timing.
package vnet

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"time"

	"iotlan/internal/obs"
	"iotlan/internal/sim"
)

const (
	// settleRounds is how many yield-and-poll rounds the pump runs before
	// concluding no app goroutine is about to submit an operation.
	settleRounds = 8
	// stallReset is the real-time valve on waiting for a grant holder: past
	// it the pump assumes the grants leaked (their goroutines exited) and
	// resets the gate rather than deadlocking the simulation.
	stallReset = 50 * time.Millisecond
)

// Pump drives a scheduler on behalf of blocking app goroutines. Exactly one
// Pump may drive a given scheduler; all Nets over that scheduler's LAN must
// share it.
type Pump struct {
	sched *sim.Scheduler
	calls chan func()
	// epoch is the virtual time the pump was created at, used to classify
	// deadlines (see abortDeadline).
	epoch time.Time

	// holders are the goroutines holding a compute grant; births counts the
	// grants minted for goroutines not yet running (Go, Conn.birth). Only
	// the pump goroutine touches them.
	holders map[actor]struct{}
	births  int

	// running is true while Run executes. Non-blocking operations issued
	// before Run starts (test and scenario setup: Listen) execute inline on
	// the caller — at that point the caller is the only goroutine touching
	// the scheduler, the same single-threaded contract Scheduler.Run has
	// always had.
	running atomic.Bool

	cResets *obs.Counter
}

// NewPump wraps a scheduler for vnet use. While Run is executing, all other
// access to the scheduler and its LAN must go through the pump.
func NewPump(s *sim.Scheduler) *Pump {
	return &Pump{
		sched:   s,
		calls:   make(chan func(), 256),
		epoch:   s.Now(),
		holders: make(map[actor]struct{}),
		cResets: s.Telemetry.Registry.Counter("vnet_grant_resets"),
	}
}

// abortDeadline reports whether a deadline predates the simulation epoch.
// No in-sim deadline can be set in the past, so such a value is the stdlib's
// "aLongTimeAgo" unblock idiom (net/http aborts pending reads with it). A
// reader woken by an abort is about to unwind and exit, so its expiry grants
// no compute token — granting one would leak it and couple the virtual clock
// to the real-time stall valve.
func (p *Pump) abortDeadline(t time.Time) bool { return t.Before(p.epoch) }

// Now returns the current virtual time. Safe only from the pump goroutine or
// while the pump is not running; in-sim goroutines that need the time mid-run
// should capture it from operation results or use Sleep.
func (p *Pump) Now() time.Time { return p.sched.Now() }

// Go spawns an in-sim actor goroutine and returns a channel closed when it
// finishes. The actor starts with a compute grant: the clock stays frozen
// from the spawn until its first operation. fn should therefore reach a vnet
// operation before blocking on anything else — an actor that first waits on
// a plain channel holds the clock until the stall valve releases it.
func (p *Pump) Go(fn func()) <-chan struct{} {
	done := make(chan struct{})
	p.pumpSide(func() { p.births++ })
	go func() {
		defer close(done)
		a := self()
		p.submit(func() {
			if p.births > 0 { // the stall valve may have zeroed it
				p.births--
			}
			p.grant(a)
		})
		fn()
	}()
	return done
}

// pumpSide runs fn on the pump goroutine when the pump is running, without
// waiting for it, and on the caller otherwise (setup before Run).
func (p *Pump) pumpSide(fn func()) {
	if p.running.Load() {
		p.submit(fn)
		return
	}
	fn()
}

// submit queues an operation for the pump goroutine.
func (p *Pump) submit(fn func()) { p.calls <- fn }

// actor identifies the goroutine an operation runs on behalf of: the
// runtime's goroutine id, captured on that goroutine as it enters the
// operation.
type actor uint64

// self returns the calling goroutine's actor, parsed from the header of its
// stack trace ("goroutine 42 [running]:").
func self() actor {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	var id actor
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + actor(c-'0')
	}
	return id
}

// release returns a's compute grant, if it holds one (operation entry).
func (p *Pump) release(a actor) { delete(p.holders, a) }

// grant hands a a compute grant (operation completion).
func (p *Pump) grant(a actor) { p.holders[a] = struct{}{} }

// granted counts outstanding compute grants.
func (p *Pump) granted() int { return len(p.holders) + p.births }

// exec runs fn on the pump goroutine and blocks the caller until it ran. The
// caller is treated as paused during fn and resumed after — the shape of a
// non-blocking operation (Write, SetDeadline, CloseWrite).
func (p *Pump) exec(fn func()) {
	if !p.running.Load() {
		fn()
		return
	}
	a := self()
	done := make(chan struct{})
	p.submit(func() {
		p.release(a)
		fn()
		p.grant(a)
		close(done)
	})
	<-done
}

// execTerminal is exec for operations after which the caller may never call
// in again (Close): the completion grants nothing.
func (p *Pump) execTerminal(fn func()) {
	if !p.running.Load() {
		fn()
		return
	}
	a := self()
	done := make(chan struct{})
	p.submit(func() {
		p.release(a)
		fn()
		close(done)
	})
	<-done
}

// Sleep parks the calling goroutine for a virtual duration. The wake is a
// granted completion, so the caller's follow-up compute is clock-frozen like
// any read result.
func (p *Pump) Sleep(d time.Duration) {
	a := self()
	ch := make(chan struct{}, 1)
	p.submit(func() {
		p.release(a)
		p.sched.AfterTagged("vnet", d, func() {
			p.grant(a)
			ch <- struct{}{}
		})
	})
	<-ch
}

// Run drives the simulation until the virtual clock reaches until, giving
// app goroutines their rendezvous between events. It replaces
// Scheduler.Run/RunFor whenever vnet connections are in play.
func (p *Pump) Run(until time.Time) {
	p.running.Store(true)
	defer p.running.Store(false)
	for {
		// Drain every queued operation first: operations never advance the
		// clock, so draining is always safe and keeps the total order long.
		draining := true
		for draining {
			select {
			case fn := <-p.calls:
				fn()
			default:
				draining = false
			}
		}
		if p.granted() > 0 {
			// Somebody computes with the clock frozen; wait for their next
			// operation. The valve recovers grants leaked by goroutines
			// that exited after a granted completion.
			select {
			case fn := <-p.calls:
				fn()
			case <-time.After(stallReset):
				p.cResets.Add(uint64(p.granted()))
				clear(p.holders)
				p.births = 0
			}
			continue
		}
		if p.settle() {
			continue
		}
		if p.sched.Step(until) {
			continue
		}
		// No grants, no operations after settling, no events before until:
		// one last generous settle for goroutines the runtime parked
		// mid-compute, then finish.
		if p.settleHard() {
			continue
		}
		p.sched.AdvanceTo(until)
		return
	}
}

// RunFor is Run for a duration from the current virtual time.
func (p *Pump) RunFor(d time.Duration) { p.Run(p.sched.Now().Add(d)) }

// settle yields the processor a few times, giving runnable goroutines the
// chance to submit their next operation before the clock moves. Reports
// whether any operation was processed.
func (p *Pump) settle() bool {
	for i := 0; i < settleRounds; i++ {
		runtime.Gosched()
		select {
		case fn := <-p.calls:
			fn()
			return true
		default:
		}
	}
	return false
}

// settleHard is settle with real-time backoff, used only right before Run
// returns: a goroutine preempted mid-compute gets up to ~2 ms of wall time
// to land its operation instead of being stranded past the end of Run.
func (p *Pump) settleHard() bool {
	for i := 0; i < 20; i++ {
		select {
		case fn := <-p.calls:
			fn()
			return true
		case <-time.After(100 * time.Microsecond):
		}
	}
	return false
}
