package iotlan_test

import (
	"fmt"
	"time"

	"iotlan"
)

// ExampleNew shows the minimal passive-capture workflow.
func ExampleNew() {
	study := iotlan.New(7, iotlan.WithIdleDuration(5*time.Minute))
	study.RunPassive()

	t3 := study.Table3()
	fmt.Printf("%.0f devices, %.0f unique models\n",
		t3.Metrics["devices"], t3.Metrics["unique_models"])
	// Output: 93 devices, 78 unique models
}

// ExampleStudy_Figure1 regenerates the device-to-device graph headline.
func ExampleStudy_Figure1() {
	study := iotlan.New(7, iotlan.WithIdleDuration(20*time.Minute))
	f1 := study.Figure1() // runs the passive capture on demand
	fmt.Printf("talkers above zero: %v\n", f1.Metrics["talker_fraction"] > 0)
	// Output: talkers above zero: true
}

// ExampleStudy_Mitigations quantifies the §7 countermeasures.
func ExampleStudy_Mitigations() {
	study := iotlan.New(7, iotlan.WithHouseholds(500))
	m := study.Mitigations()
	baseline := m.Metrics["reid_rate/none"]
	full := m.Metrics["reid_rate/strip-names+randomize-uuids+redact-macs"]
	fmt.Printf("baseline re-identification high: %v, fully mitigated low: %v\n",
		baseline > 0.9, full < 0.05)
	// Output: baseline re-identification high: true, fully mitigated low: true
}
