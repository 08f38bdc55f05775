package iotlan

import (
	"reflect"
	"testing"
	"time"
)

// The shared-prerequisite memoization (communication graph, identifier
// extraction) must be invisible in output: dropping the caches mid-study
// rebuilds every prerequisite, and the next pass, whose readers decode the
// capture again, renders byte-identical results.
func TestUnsharedPrereqsIdenticalOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full study")
	}
	study := New(5,
		WithIdleDuration(2*time.Minute),
		WithInteractions(8),
		WithHouseholds(60),
		WithApps(6),
		WithWorkers(1),
	)
	a := study.Everything()
	study.ResetAnalysisCaches()
	compareResults(t, "post-reset", a, study.Everything())
}

func compareResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Rendered != got[i].Rendered ||
			!reflect.DeepEqual(want[i].Metrics, got[i].Metrics) {
			t.Fatalf("%s: artifact %q diverged from the memoized run", label, want[i].ID)
		}
	}
}
