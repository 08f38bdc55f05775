package resident

import (
	"strings"
	"testing"
	"time"
)

func testWorld() World {
	return World{
		Devices: []string{
			"echo-dot", "google-home", "hue-hub", "tplink-plug", "wyze-cam",
			"ring-doorbell", "smartthings-hub", "roku-tv", "sonos-one",
			"nest-thermostat", "wemo-switch", "arlo-base",
		},
		InteractionKinds: 4,
	}
}

func TestCompileDeterministic(t *testing.T) {
	plan := Household(4, 7)
	for _, seed := range []int64{1, 42, 1337} {
		a, err := Compile(seed, plan, testWorld())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Compile(seed, plan, testWorld())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Render() != b.Render() {
			t.Fatalf("seed %d: same-seed schedules differ", seed)
		}
	}
	// Different seeds must differ (jitter and drift draws move).
	a, _ := Compile(1, plan, testWorld())
	b, _ := Compile(2, plan, testWorld())
	if a.Render() == b.Render() {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestCompileUnknownPersona(t *testing.T) {
	_, err := Compile(1, Plan{Personas: []string{"astronaut"}, Days: 1}, testWorld())
	if err == nil || !strings.Contains(err.Error(), "astronaut") {
		t.Fatalf("want unknown-persona error naming it, got %v", err)
	}
}

func TestCompileDisabled(t *testing.T) {
	s, err := Compile(1, Plan{}, testWorld())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 0 {
		t.Fatalf("disabled plan compiled %d events", len(s.Events))
	}
	if s.Plan.Enabled() {
		t.Fatal("zero plan reports enabled")
	}
}

func TestScheduleShape(t *testing.T) {
	plan := Household(4, 7)
	s, err := Compile(42, plan, testWorld())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventKind]int{}
	for _, ev := range s.Events {
		counts[ev.Kind]++
	}
	for _, k := range []EventKind{EventInteract, EventApp, EventSensor} {
		if counts[k] == 0 {
			t.Errorf("no %s events in a 4-resident week", k)
		}
	}
	// Default drift over one week: ~1 retire, ~1 add, ~2 firmware.
	if counts[EventRetire] == 0 || counts[EventAdd] == 0 || counts[EventFirmware] == 0 {
		t.Errorf("drift events missing: %v", counts)
	}
	// Events sorted and inside the run.
	last := time.Duration(-1)
	for _, ev := range s.Events {
		if ev.At < last {
			t.Fatal("events not sorted by time")
		}
		last = ev.At
		if ev.At < 0 || ev.At >= plan.Duration() {
			t.Fatalf("event at %v outside run of %v", ev.At, plan.Duration())
		}
	}
}

func TestDriftTargetsDisjoint(t *testing.T) {
	plan := Household(4, 28) // four weeks: several of each drift kind
	s, err := Compile(7, plan, testWorld())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, group := range []struct {
		label string
		names []string
	}{{"retired", s.Retired()}, {"added", s.Added()}, {"updated", s.Updated()}} {
		for _, n := range group.names {
			if prev, dup := seen[n]; dup {
				t.Errorf("device %s in both %s and %s", n, prev, group.label)
			}
			seen[n] = group.label
		}
	}
	if len(s.Retired()) == 0 || len(s.Added()) == 0 || len(s.Updated()) == 0 {
		t.Fatalf("expected all drift groups populated over 4 weeks: retired=%d added=%d updated=%d",
			len(s.Retired()), len(s.Added()), len(s.Updated()))
	}
	for _, n := range s.Added() {
		if !s.IsAdded(n) {
			t.Errorf("IsAdded(%s) = false for an added device", n)
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	// The whole point: activity concentrates in waking hours. Compare the
	// night trough (1am-4am) to the evening peak window (18-21h).
	s, err := Compile(42, Household(4, 7), testWorld())
	if err != nil {
		t.Fatal(err)
	}
	hist := s.HourHistogram()
	night := hist[1] + hist[2] + hist[3]
	evening := hist[18] + hist[19] + hist[20]
	if evening <= night*2 {
		t.Fatalf("no diurnal structure: evening=%d night=%d hist=%v", evening, night, hist)
	}
}

func TestWeekendShape(t *testing.T) {
	// On weekends the office worker stays home, so a weekend day carries
	// daytime (10h-15h) interactions a weekday lacks for a pure
	// office-worker household.
	plan := Plan{Personas: []string{"office-worker", "office-worker"}, Days: 7}
	s, err := Compile(9, plan, testWorld())
	if err != nil {
		t.Fatal(err)
	}
	daytime := func(d int) int {
		lo, hi := time.Duration(d)*day+10*time.Hour, time.Duration(d)*day+15*time.Hour
		n := 0
		for _, ev := range s.Events {
			if ev.Kind == EventInteract && ev.At >= lo && ev.At < hi {
				n++
			}
		}
		return n
	}
	weekday, weekend := daytime(1), daytime(5) // Tuesday vs Saturday
	if weekend <= weekday {
		t.Fatalf("weekend daytime interactions (%d) not above weekday (%d)", weekend, weekday)
	}
}

func TestPlanString(t *testing.T) {
	if got := (Plan{}).String(); got != "off" {
		t.Fatalf("zero plan String() = %q", got)
	}
	p := Household(3, 5)
	for _, want := range []string{"residents=3", "days=5", "drift"} {
		if !strings.Contains(p.String(), want) {
			t.Fatalf("plan string %q missing %q", p.String(), want)
		}
	}
}
