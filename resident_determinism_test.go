package iotlan

import (
	"strings"
	"testing"
	"time"

	"iotlan/internal/chaos"
	"iotlan/internal/device"
	"iotlan/internal/resident"
	"iotlan/internal/testbed"
)

// residentProfiles is the reduced roster the resident determinism tests run
// on: every interaction kind has its participants, sensors have cameras and
// automation devices, and drift has a plaintext-Tuya firmware-flip target —
// multi-day runs stay inside the root package's -race budget where the full
// 93-device catalog would not.
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

// residentStudy is a subset-catalog study driven by residents instead of the
// scripted workload.
func residentStudy(seed int64, workers int, plan resident.Plan) *Study {
	return New(seed,
		WithWorkers(workers),
		WithLabProfiles(residentProfiles()),
		WithResidents(plan),
	)
}

// TestResidentScheduleByteIdentical pins the compile contract: the same
// (seed, plan, world) renders the identical schedule every time, distinct
// seeds render distinct schedules, and worker count — an analysis-only knob —
// never reaches the compiler. Compile-level only, so all three seeds fit in
// any budget.
func TestResidentScheduleByteIdentical(t *testing.T) {
	plan := resident.Household(4, 3)
	renders := map[int64]string{}
	for _, seed := range []int64{1, 42, 1337} {
		a := testbed.NewWith(seed, residentProfiles(), testbed.WithResidents(plan))
		b := testbed.NewWith(seed, residentProfiles(), testbed.WithResidents(plan))
		ra, rb := a.Residents.Render(), b.Residents.Render()
		if ra != rb {
			t.Fatalf("seed %d: schedule differs between identical labs", seed)
		}
		if ra == "" {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		renders[seed] = ra
	}
	if renders[1] == renders[42] || renders[42] == renders[1337] {
		t.Fatal("distinct seeds compiled identical schedules")
	}
}

// TestResidentByteIdenticalAcrossWorkerCounts extends the worker-count
// determinism contract to the resident layer: for a fixed (seed, plan),
// workers=1 and workers=4 must agree byte-for-byte on the compiled schedule,
// the frame-by-frame capture, the diurnal artifact, and the metrics snapshot
// (which includes the resident_events series).
func TestResidentByteIdenticalAcrossWorkerCounts(t *testing.T) {
	plan := resident.Household(4, 2)
	seq := residentStudy(42, 1, plan)
	par := residentStudy(42, 4, plan)
	a, err := seq.RunArtifact("diurnal")
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	b, err := par.RunArtifact("diurnal")
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	if seq.Lab.Residents.Render() != par.Lab.Residents.Render() {
		t.Error("compiled schedule differs between worker counts")
	}
	if a.Rendered != b.Rendered {
		t.Errorf("diurnal rendition differs between worker counts:\n--- workers=1\n%s--- workers=4\n%s", a.Rendered, b.Rendered)
	}
	if len(a.Metrics) == 0 {
		t.Error("diurnal artifact carries no metrics")
	}
	checkArtifactGolden(t, "resident-42", a)
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("diurnal metric %s differs: %v vs %v", k, v, b.Metrics[k])
		}
	}
	ra, rb := seq.Lab.Capture.All, par.Lab.Capture.All
	if len(ra) != len(rb) {
		t.Fatalf("capture lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if !ra[i].Time.Equal(rb[i].Time) || string(ra[i].Data) != string(rb[i].Data) {
			t.Fatalf("capture record %d differs between worker counts", i)
		}
	}
	if string(seq.Lab.Telemetry().Registry.Snapshot()) != string(par.Lab.Telemetry().Registry.Snapshot()) {
		t.Error("metrics snapshot differs between worker counts")
	}
}

// TestResidentsComposeWithChaos runs residents and a degraded network
// together: both layers must actually fire (faults injected, resident events
// executed), the diurnal artifact must still render, and the composition must
// stay deterministic for a fixed seed — the SubSeed streams keep the two
// layers from perturbing each other.
func TestResidentsComposeWithChaos(t *testing.T) {
	plan := resident.Household(3, 1)
	degraded := chaos.Plan{
		Name: "test-degraded",
		Loss: 0.03, Duplicate: 0.01, Reorder: 0.02,
		MaxExtraLatency: 2 * time.Millisecond,
		Corrupt:         0.01,
		Partitions:      []chaos.Partition{{Start: 90 * time.Second, Duration: time.Minute, Isolate: 0.3}},
		Churn:           &chaos.Churn{Start: time.Minute, Interval: 45 * time.Second, Downtime: 20 * time.Second},
	}
	mk := func() *Study {
		return New(9,
			WithLabProfiles(residentProfiles()),
			WithResidents(plan),
			WithChaos(degraded),
		)
	}
	a, b := mk(), mk()
	ra, err := a.RunArtifact("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunArtifact("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	if a.Lab.Chaos.Faults() == 0 {
		t.Error("degraded plan injected no faults alongside residents")
	}
	if a.Lab.Telemetry().Registry.Total("resident_events") == 0 {
		t.Error("no resident events executed under chaos")
	}
	if ra.Rendered == "" {
		t.Error("diurnal artifact empty under chaos")
	}
	if ra.Rendered != rb.Rendered {
		t.Error("residents+chaos composition is not deterministic for a fixed seed")
	}
	if !strings.Contains(a.Lab.Summary(), "residents=") {
		t.Errorf("summary lacks resident stats: %s", a.Lab.Summary())
	}
}

// TestDiurnalStructureRequiresResidents is the artifact's reason to exist:
// over equal 48-hour windows, a resident-driven lab shows strongly
// non-uniform hour-of-day traffic while the classic idle workload stays
// flat — the structure appears with residents and disappears without them.
func TestDiurnalStructureRequiresResidents(t *testing.T) {
	lived := residentStudy(1, 2, resident.Household(4, 2))
	baseline := New(1,
		WithWorkers(2),
		WithLabProfiles(residentProfiles()),
		WithIdleDuration(48*time.Hour),
		WithInteractions(0),
	)
	rl, err := lived.RunArtifact("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := baseline.RunArtifact("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	if got := rl.Metrics["hours_covered"]; got != 24 {
		t.Fatalf("resident run covered %v hours, want 24", got)
	}
	if got := rb.Metrics["hours_covered"]; got != 24 {
		t.Fatalf("baseline run covered %v hours, want 24", got)
	}
	livedCV, baseCV := rl.Metrics["hour_cv"], rb.Metrics["hour_cv"]
	if livedCV <= 2*baseCV {
		t.Errorf("resident hour CV %.3f not clearly above baseline %.3f", livedCV, baseCV)
	}
	if livedCV < 0.4 {
		t.Errorf("resident hour CV %.3f too flat for a diurnal household", livedCV)
	}
	if peak := rl.Metrics["peak_hour"]; peak < 6 || peak > 22 {
		t.Errorf("resident peak hour %v outside waking hours", peak)
	}
	if rl.Metrics["schedule_events"] == 0 {
		t.Error("resident run reports no scheduled events")
	}
	if rb.Metrics["schedule_events"] != 0 {
		t.Error("baseline run reports scheduled events without residents")
	}
}
