package testbed

import (
	"strings"
	"testing"
	"time"

	"iotlan/internal/device"
	"iotlan/internal/obs"
	"iotlan/internal/resident"
)

// residentProfiles is a reduced roster for multi-day resident runs: every
// interaction kind has its participants (echoes, googles, hue-hub,
// tplink-plug), sensors have cameras and automation devices, and drift has a
// plaintext-Tuya firmware-flip target — at a fraction of the 93-device lab's
// per-simulated-day cost.
func residentProfiles() []*device.Profile {
	return device.Subset(
		"echo-1", "echo-2", "echo-3",
		"google-1", "google-2",
		"hue-hub", "tplink-plug", "tplink-bulb",
		"tuya-bulb-jinvoo", "tuya-plug-1",
		"wyze-cam", "ring-doorbell", "arlo-cam-1",
		"smartthings-hub", "nest-thermostat", "wemo-plug",
		"chromecast", "roku-tv",
	)
}

// TestRetireDeviceReleasesLeaseAndDetaches is the churn-edge regression: a
// device retired mid-run must release its DHCP lease and detach through the
// crash path, so frames still in flight toward it land in
// lan_frames_dropped{reason=detached} accounting — not silent loss.
func TestRetireDeviceReleasesLeaseAndDetaches(t *testing.T) {
	lab := New(1)
	lab.Start()
	lab.RunIdle(10 * time.Minute)

	victim := lab.Device("hue-hub")
	if victim == nil || !victim.IP().IsValid() {
		t.Fatal("hue-hub did not boot")
	}
	if _, ok := lab.DHCP.Leases[victim.MAC()]; !ok {
		t.Fatal("hue-hub has no lease before retirement")
	}
	reg := lab.Sched.Telemetry.Registry
	dropsBefore := reg.CounterValue(obs.Key("lan_frames_dropped", "reason", "detached"))

	// Launch a frame toward the victim, then retire it before delivery: the
	// LAN resolves recipients at fire time, so the in-flight frame must hit
	// the detached accounting.
	conn := lab.Router.DialTCP(victim.IP(), 80)
	_ = conn
	if !lab.RetireDevice("hue-hub") {
		t.Fatal("RetireDevice reported the device was not up")
	}
	lab.RunIdle(time.Minute)

	if !victim.Retired {
		t.Fatal("device not marked retired")
	}
	if _, ok := lab.DHCP.Leases[victim.MAC()]; ok {
		t.Fatal("retired device still holds a DHCP lease")
	}
	if reg.CounterValue(obs.Key("dhcp_messages", "type", "release")) == 0 {
		t.Fatal("lease release not counted")
	}
	if after := reg.CounterValue(obs.Key("lan_frames_dropped", "reason", "detached")); after <= dropsBefore {
		t.Fatalf("no detached drops recorded (before=%d after=%d)", dropsBefore, after)
	}

	// Retired is forever: Restart must not bring it back (a revived device
	// would re-run DHCP and reacquire a lease), and a second Retire is a
	// reported no-op.
	victim.Restart()
	lab.RunIdle(2 * time.Minute)
	if _, ok := lab.DHCP.Leases[victim.MAC()]; ok {
		t.Fatal("retired device reacquired a lease after Restart")
	}
	if lab.RetireDevice("hue-hub") {
		t.Fatal("second RetireDevice reported success")
	}
}

// TestInteractPacing verifies Interact advances the clock a fixed 5 s per
// interaction and counts each one.
func TestInteractPacing(t *testing.T) {
	lab := New(1)
	lab.Start()
	lab.RunIdle(5 * time.Minute)

	start := lab.Sched.Now()
	lab.Interact(6)
	if got := lab.Sched.Now().Sub(start); got != 30*time.Second {
		t.Fatalf("6 interactions advanced %v, want 30s", got)
	}
	start = lab.Sched.Now()
	lab.Interact(2)
	if got := lab.Sched.Now().Sub(start); got != 10*time.Second {
		t.Fatalf("2 interactions advanced %v, want 10s", got)
	}
	if lab.Interactions != 8 {
		t.Fatalf("interactions = %d, want 8", lab.Interactions)
	}
}

// TestResidentsDriveLab is the executor smoke test: a resident-enabled lab
// produces interaction/app/sensor events, applies drift, and the summary
// reports them.
func TestResidentsDriveLab(t *testing.T) {
	plan := resident.Household(4, 4)
	lab := NewWith(1, residentProfiles(), WithResidents(plan))
	lab.Start()
	lab.RunIdle(plan.Duration())

	reg := lab.Sched.Telemetry.Registry
	for _, kind := range []string{"interact", "app", "sensor"} {
		if reg.CounterValue(obs.Key("resident_events", "kind", kind)) == 0 {
			t.Errorf("no %s resident events executed", kind)
		}
	}
	if lab.Interactions == 0 {
		t.Error("resident interactions did not increment the lab counter")
	}
	// Drift: retired devices are gone (no lease), updated devices carry a
	// bumped firmware revision.
	for _, name := range lab.Residents.Retired() {
		d := lab.Device(name)
		if !d.Retired {
			t.Errorf("scheduled retirement of %s did not happen", name)
		}
		if _, ok := lab.DHCP.Leases[d.MAC()]; ok {
			t.Errorf("retired %s still holds a lease", name)
		}
	}
	for _, name := range lab.Residents.Updated() {
		if d := lab.Device(name); d.FirmwareRev == 0 {
			t.Errorf("scheduled firmware update of %s did not happen", name)
		}
	}
	for _, name := range lab.Residents.Added() {
		d := lab.Device(name)
		if !d.Started {
			t.Errorf("added device %s never joined", name)
		}
	}
	if s := lab.Summary(); !strings.Contains(s, "residents=") {
		t.Errorf("summary lacks resident stats: %s", s)
	}
}

// TestAddedDeviceJoinsLate verifies drift add-targets do not boot with the
// lab but are up by the end of the run.
func TestAddedDeviceJoinsLate(t *testing.T) {
	plan := resident.Household(4, 4)
	lab := NewWith(7, residentProfiles(), WithResidents(plan))
	if len(lab.Residents.Added()) == 0 {
		t.Fatal("4-day plan compiled no add events")
	}
	lab.Start()
	lab.RunIdle(30 * time.Minute) // well past boot, before drift window
	for _, name := range lab.Residents.Added() {
		if lab.Device(name).Started {
			t.Fatalf("added device %s booted with the lab", name)
		}
	}
	lab.RunIdle(plan.Duration() - 30*time.Minute)
	for _, name := range lab.Residents.Added() {
		if !lab.Device(name).Started {
			t.Fatalf("added device %s never joined", name)
		}
	}
}
