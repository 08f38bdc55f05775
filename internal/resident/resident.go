// Package resident is the persona-driven behaviour layer for the simulated
// smart home. The paper's testbed (§3.1) drives its 93 devices with fixed
// round-robin interaction scripts; real households do not behave that way —
// traffic follows the people in the room. This package compiles personas
// (an office worker who leaves at 8:15, a night-shift nurse asleep until
// 3 pm, a retiree home all day, a family whose kids storm in at 3:30) into
// executable household schedules: timed device interactions, companion-app
// foreground sessions, and occupancy-correlated sensor chatter, plus
// longitudinal drift — devices added or retired mid-run and firmware-update
// events that flip protocol behaviour flags — in the spirit of "Simulating
// the Resident" and the diurnal/longitudinal structure "Characterizing
// Smart Home IoT Traffic in the Wild" documents.
//
// Determinism contract: a Schedule is a pure function of (seed, Plan,
// World). Every random decision is drawn at compile time from a dedicated
// stream derived via engine.SubSeed — never from the base simulation's
// random sequence — so the same seed produces a byte-identical schedule
// (Render), capture, and artifact set at any analysis worker count,
// mirroring the chaos design. The execution layer (internal/testbed)
// schedules the compiled events on the virtual clock via sim timers; this
// package deliberately knows nothing about the testbed, so there is no
// import cycle and the compiler stays trivially testable.
package resident

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"iotlan/internal/engine"
)

// rngStream is the engine.SubSeed stream tag for the resident random
// stream — distinct from chaos's 0xc4a05, so the two layers compose without
// perturbing each other.
const rngStream = 0x4e51d

// day is one simulated day.
const day = 24 * time.Hour

// Persona is one household member's daily routine. Anchor times are offsets
// into a nominal day and may exceed 24h for routines that cross midnight
// (the night-shift worker returns at 31h = 7 am the next day).
type Persona struct {
	// Name is the CLI/schedule label ("office-worker").
	Name string
	// Wake and Sleep bound the at-home awake window.
	Wake, Sleep time.Duration
	// Leave/Return bound the away-at-work window; only meaningful when Away
	// is set. Both may exceed 24h.
	Leave, Return time.Duration
	// Away marks a persona that leaves the house on weekdays.
	Away bool
	// Jitter is the per-day uniform jitter applied to every anchor.
	Jitter time.Duration
	// MorningActs/EveningActs are device interactions per home window
	// (before leaving / after returning; for home-all-day personas the two
	// halves of the awake window).
	MorningActs, EveningActs int
	// AppSessions is companion-app foreground sessions per day.
	AppSessions int
	// SensorPerHour is the occupancy sensor-chatter rate while home and
	// awake (motion events, presence pings). Away hours emit nothing —
	// that asymmetry is what makes occupancy visible in the capture.
	SensorPerHour int
}

// personas are the built-in routines. Times follow the diurnal shapes of
// "Characterizing Smart Home IoT Traffic in the Wild": morning and evening
// peaks for workers, a flat daytime plateau for home-all-day personas.
var personas = []Persona{
	{Name: "office-worker", Wake: 6*time.Hour + 45*time.Minute, Leave: 8*time.Hour + 15*time.Minute,
		Return: 17*time.Hour + 45*time.Minute, Sleep: 23 * time.Hour, Away: true,
		Jitter: 25 * time.Minute, MorningActs: 4, EveningActs: 10, AppSessions: 3, SensorPerHour: 2},
	{Name: "night-shift", Wake: 15 * time.Hour, Leave: 21*time.Hour + 30*time.Minute,
		Return: 31 * time.Hour, Sleep: 32*time.Hour + 30*time.Minute, Away: true,
		Jitter: 30 * time.Minute, MorningActs: 6, EveningActs: 3, AppSessions: 2, SensorPerHour: 2},
	{Name: "retiree", Wake: 6 * time.Hour, Sleep: 21*time.Hour + 30*time.Minute,
		Jitter: 40 * time.Minute, MorningActs: 6, EveningActs: 6, AppSessions: 2, SensorPerHour: 3},
	{Name: "family-with-kids", Wake: 6*time.Hour + 15*time.Minute, Leave: 8*time.Hour + 45*time.Minute,
		Return: 15*time.Hour + 30*time.Minute, Sleep: 22*time.Hour + 15*time.Minute, Away: true,
		Jitter: 20 * time.Minute, MorningActs: 8, EveningActs: 14, AppSessions: 5, SensorPerHour: 4},
	{Name: "remote-worker", Wake: 7*time.Hour + 30*time.Minute, Sleep: 23*time.Hour + 30*time.Minute,
		Jitter: 30 * time.Minute, MorningActs: 5, EveningActs: 8, AppSessions: 4, SensorPerHour: 2},
}

// PersonaNames lists the built-in persona names in definition order.
func PersonaNames() []string {
	names := make([]string, len(personas))
	for i, p := range personas {
		names[i] = p.Name
	}
	return names
}

// personaByName resolves a built-in persona.
func personaByName(name string) (Persona, bool) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, p := range personas {
		if p.Name == want {
			return p, true
		}
	}
	return Persona{}, false
}

// Drift configures longitudinal change over the run: devices retired
// (thrown out, broken), devices added (the new speaker bought in week 2 —
// realised as a delayed first join), and firmware updates that flip
// protocol behaviour flags on a device's profile. Rates are events per
// simulated week; the compiler scales them to the plan's Days and rounds.
type Drift struct {
	RetirePerWeek   float64
	AddPerWeek      float64
	FirmwarePerWeek float64
}

// DefaultDrift is the paper-plausible churn rate: about one device in and
// one out per week, with firmware updates twice a week across the fleet.
func DefaultDrift() Drift {
	return Drift{RetirePerWeek: 1, AddPerWeek: 1, FirmwarePerWeek: 2}
}

// Enabled reports whether any drift rate is set.
func (d Drift) Enabled() bool {
	return d.RetirePerWeek > 0 || d.AddPerWeek > 0 || d.FirmwarePerWeek > 0
}

// Plan configures a resident simulation. The zero Plan is disabled.
type Plan struct {
	// Personas names one built-in persona per resident ("office-worker",
	// "retiree", …). Duplicates are fine — each gets its own instance label
	// and its own random draws.
	Personas []string
	// Days is the number of simulated days the schedule covers.
	Days int
	// Drift configures longitudinal device churn and firmware updates.
	Drift Drift
}

// Enabled reports whether the plan schedules anything.
func (p Plan) Enabled() bool { return len(p.Personas) > 0 && p.Days > 0 }

// Duration is the virtual window the schedule covers.
func (p Plan) Duration() time.Duration { return time.Duration(p.Days) * day }

// String renders the plan compactly for CLI/summary output.
func (p Plan) String() string {
	if !p.Enabled() {
		return "off"
	}
	s := fmt.Sprintf("residents=%d days=%d", len(p.Personas), p.Days)
	if p.Drift.Enabled() {
		s += fmt.Sprintf(" drift(retire=%.1f add=%.1f fw=%.1f per week)",
			p.Drift.RetirePerWeek, p.Drift.AddPerWeek, p.Drift.FirmwarePerWeek)
	}
	return s
}

// Household builds a plan with n residents drawn round-robin from the
// default persona mix, running for days simulated days with default drift.
func Household(n, days int) Plan {
	if n <= 0 || days <= 0 {
		return Plan{}
	}
	mix := PersonaNames()
	names := make([]string, n)
	for i := range names {
		names[i] = mix[i%len(mix)]
	}
	return Plan{Personas: names, Days: days, Drift: DefaultDrift()}
}

// World describes the household the compiler schedules against. The
// executor (internal/testbed) builds it from its device catalog; tests can
// use any stand-in.
type World struct {
	// Devices are device names in catalog order. Drift events target them.
	Devices []string
	// InteractionKinds is the number of scripted interaction kinds
	// (testbed.InteractionKind values); interaction events carry a kind
	// index in [0, InteractionKinds).
	InteractionKinds int
}

// EventKind enumerates schedule event types.
type EventKind int

// Schedule event kinds.
const (
	// EventInteract performs one scripted device interaction
	// (Arg = interaction kind index).
	EventInteract EventKind = iota
	// EventApp runs one companion-app foreground session on the resident's
	// phone (Arg = session variant).
	EventApp
	// EventSensor emits one occupancy-correlated sensor event
	// (Arg = sensor pick index).
	EventSensor
	// EventRetire permanently removes Device from the LAN.
	EventRetire
	// EventAdd first-joins Device (it did not boot with the lab).
	EventAdd
	// EventFirmware applies a firmware update to Device.
	EventFirmware
)

// String names the kind for renders and telemetry labels.
func (k EventKind) String() string {
	switch k {
	case EventInteract:
		return "interact"
	case EventApp:
		return "app"
	case EventSensor:
		return "sensor"
	case EventRetire:
		return "retire"
	case EventAdd:
		return "add"
	case EventFirmware:
		return "firmware"
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Event is one scheduled action. At is the offset from the simulation
// epoch; the executor maps it onto the virtual clock.
type Event struct {
	At       time.Duration
	Kind     EventKind
	Resident string // instance label ("office-worker#0"); empty for drift
	Arg      int    // kind-specific argument
	Device   string // drift target device name
}

// Schedule is a compiled, immutable household schedule.
type Schedule struct {
	Plan   Plan
	Events []Event

	// added/retired/updated are the drift target sets, in event order.
	added, retired, updated []string
}

// Compile builds the schedule for (seed, plan) against w. It returns an
// error for unknown persona names; a disabled plan compiles to an empty
// schedule. The result depends only on the arguments.
func Compile(seed int64, plan Plan, w World) (*Schedule, error) {
	s := &Schedule{Plan: plan}
	if !plan.Enabled() {
		return s, nil
	}
	rng := rand.New(rand.NewSource(engine.SubSeed(seed, rngStream)))
	for i, name := range plan.Personas {
		p, ok := personaByName(name)
		if !ok {
			return nil, fmt.Errorf("resident: unknown persona %q (known: %s)",
				name, strings.Join(PersonaNames(), ", "))
		}
		label := fmt.Sprintf("%s#%d", p.Name, i)
		compileResident(rng, s, p, label, plan.Days, w)
	}
	compileDrift(rng, s, plan, w)
	// Stable order: by time, ties broken by generation order (events were
	// appended deterministically, so a stable sort pins the tie order).
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s, nil
}

// window is one at-home awake span with an interaction budget.
type window struct {
	start, end time.Duration
	acts       int
}

// compileResident draws one resident's events for every day of the run.
func compileResident(rng *rand.Rand, s *Schedule, p Persona, label string, days int, w World) {
	jit := func(anchor time.Duration) time.Duration {
		if p.Jitter <= 0 {
			return anchor
		}
		return anchor + time.Duration(rng.Int63n(int64(2*p.Jitter))) - p.Jitter
	}
	runEnd := time.Duration(days) * day
	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * day
		// The simulation epoch (2022-11-14) is a Monday, so d%7 ∈ {5,6} is
		// the weekend: away personas stay home and spread their combined
		// interaction budget across the day.
		weekend := d%7 == 5 || d%7 == 6
		wake, sleep := jit(p.Wake), jit(p.Sleep)
		var windows []window
		if p.Away && !weekend {
			leave, ret := jit(p.Leave), jit(p.Return)
			windows = []window{
				{start: wake, end: leave, acts: p.MorningActs},
				{start: ret, end: sleep, acts: p.EveningActs},
			}
		} else {
			mid := wake + (sleep-wake)/2
			windows = []window{
				{start: wake, end: mid, acts: p.MorningActs},
				{start: mid, end: sleep, acts: p.EveningActs},
			}
		}
		emit := func(at time.Duration, kind EventKind, arg int) {
			at += dayStart
			if at < 0 || at >= runEnd {
				return // jitter or a cross-midnight anchor fell off the run
			}
			s.Events = append(s.Events, Event{At: at, Kind: kind, Resident: label, Arg: arg})
		}
		within := func(win window) time.Duration {
			span := win.end - win.start
			if span <= 0 {
				return win.start
			}
			return win.start + time.Duration(rng.Int63n(int64(span)))
		}
		for _, win := range windows {
			if win.end <= win.start {
				continue
			}
			// Device interactions: uniform within the window, kind drawn
			// from the world's interaction repertoire.
			for a := 0; a < win.acts; a++ {
				kind := 0
				if w.InteractionKinds > 0 {
					kind = rng.Intn(w.InteractionKinds)
				}
				emit(within(win), EventInteract, kind)
			}
			// Occupancy-correlated sensor chatter: SensorPerHour events per
			// at-home awake hour, none while away or asleep.
			if p.SensorPerHour > 0 {
				hours := int(win.end-win.start) / int(time.Hour)
				for h := 0; h <= hours; h++ {
					hourStart := win.start + time.Duration(h)*time.Hour
					for e := 0; e < p.SensorPerHour; e++ {
						at := hourStart + time.Duration(rng.Int63n(int64(time.Hour)))
						if at >= win.end {
							continue
						}
						emit(at, EventSensor, rng.Intn(1<<16))
					}
				}
			}
		}
		// App foreground sessions land in any home window.
		for a := 0; a < p.AppSessions; a++ {
			win := windows[rng.Intn(len(windows))]
			if win.end <= win.start {
				continue
			}
			emit(within(win), EventApp, rng.Intn(3))
		}
	}
}

// compileDrift draws the longitudinal events: disjoint retire/add targets
// (a device cannot be added after the run started with it, nor retired
// before it joined), firmware updates over the remaining population, all in
// the middle two thirds of the run so both "before" and "after" epochs are
// observable.
func compileDrift(rng *rand.Rand, s *Schedule, plan Plan, w World) {
	if !plan.Drift.Enabled() || len(w.Devices) == 0 {
		return
	}
	weeks := float64(plan.Days) / 7
	count := func(rate float64) int {
		return int(math.Round(rate * weeks))
	}
	nRetire, nAdd, nFw := count(plan.Drift.RetirePerWeek), count(plan.Drift.AddPerWeek), count(plan.Drift.FirmwarePerWeek)
	// Keep the fleet recognisable: never churn more than a third of it.
	if limit := len(w.Devices) / 3; nRetire+nAdd > limit {
		if nRetire > limit/2 {
			nRetire = limit / 2
		}
		if nAdd > limit-nRetire {
			nAdd = limit - nRetire
		}
	}
	perm := rng.Perm(len(w.Devices))
	pick := func(n int) []string {
		if n > len(perm) {
			n = len(perm)
		}
		out := make([]string, n)
		for i := 0; i < n; i++ {
			out[i] = w.Devices[perm[i]]
		}
		perm = perm[n:]
		return out
	}
	runDur := plan.Duration()
	driftAt := func() time.Duration {
		lo, span := runDur/6, runDur*2/3
		return lo + time.Duration(rng.Int63n(int64(span)))
	}
	s.retired = pick(nRetire)
	s.added = pick(nAdd)
	for _, name := range s.retired {
		s.Events = append(s.Events, Event{At: driftAt(), Kind: EventRetire, Device: name})
	}
	for _, name := range s.added {
		s.Events = append(s.Events, Event{At: driftAt(), Kind: EventAdd, Device: name})
	}
	// Firmware updates target devices that boot with the lab and stay —
	// updating a device the schedule later retires is fine in reality, but
	// excluding churn targets keeps the three drift populations disjoint
	// and the "before/after" flip cleanly observable per device.
	if nFw > len(perm) {
		nFw = len(perm)
	}
	for i := 0; i < nFw; i++ {
		name := w.Devices[perm[i]]
		s.updated = append(s.updated, name)
		s.Events = append(s.Events, Event{At: driftAt(), Kind: EventFirmware, Device: name})
	}
}

// Added returns the device names the schedule first-joins mid-run; the
// executor must not boot them with the lab.
func (s *Schedule) Added() []string { return append([]string(nil), s.added...) }

// Retired returns the device names the schedule retires mid-run.
func (s *Schedule) Retired() []string { return append([]string(nil), s.retired...) }

// Updated returns the device names receiving firmware updates.
func (s *Schedule) Updated() []string { return append([]string(nil), s.updated...) }

// IsAdded reports whether the named device joins mid-run.
func (s *Schedule) IsAdded(name string) bool {
	for _, n := range s.added {
		if n == name {
			return true
		}
	}
	return false
}

// HourHistogram buckets resident activity (interactions, app sessions, and
// sensor events — not drift) by hour of day across the whole run. This is
// the diurnal shape the diurnal artifact renders.
func (s *Schedule) HourHistogram() [24]int {
	var hist [24]int
	for _, ev := range s.Events {
		switch ev.Kind {
		case EventInteract, EventApp, EventSensor:
			hist[int(ev.At/time.Hour)%24]++
		}
	}
	return hist
}

// Render writes the schedule as one line per event, in execution order —
// the byte-comparison target for the determinism tests and -residents
// debug output.
func (s *Schedule) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "resident schedule: %s events=%d\n", s.Plan, len(s.Events))
	for _, ev := range s.Events {
		fmt.Fprintf(&sb, "%12s %-9s", ev.At.Truncate(time.Second), ev.Kind)
		if ev.Resident != "" {
			fmt.Fprintf(&sb, " %-20s", ev.Resident)
		}
		if ev.Device != "" {
			fmt.Fprintf(&sb, " device=%s", ev.Device)
		}
		if ev.Kind == EventInteract || ev.Kind == EventApp {
			fmt.Fprintf(&sb, " arg=%d", ev.Arg)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
