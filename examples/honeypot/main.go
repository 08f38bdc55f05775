// Honeypot: deploy a fake Hue bridge in the smart home, watch who pokes it,
// and trace its honeytoken through a scanning SDK's exfiltration records —
// the §3.1 methodology for proving LAN-data propagation to the cloud.
package main

import (
	"fmt"
	"time"

	"iotlan"
	"iotlan/internal/app"
)

func main() {
	study := iotlan.New(5, iotlan.WithIdleDuration(20*time.Minute))
	study.RunPassive() // the study deploys its own honeypot during capture

	hp := study.Honeypot
	fmt.Printf("honeypot %q live with honeytoken %s\n\n", hp.Name, hp.Token)

	// A spyware-laden app scans the LAN; the honeypot answers like a real
	// bridge, so its token lands in the app's haul.
	rt := app.NewRuntime(study.Lab, app.Android9)
	scannerApp := &app.App{
		Package:     "com.example.deviceradar",
		Permissions: []app.Permission{app.PermInternet, app.PermMulticast},
		UsesMDNS:    true, UsesSSDP: true,
		ExfiltratesDeviceMACs: true, // spyware ships its haul
	}
	rt.Run(scannerApp)

	fmt.Println("== Honeypot interaction log ==")
	for _, e := range hp.Events[max(0, len(hp.Events)-15):] {
		fmt.Printf("  %s %-7s %-16s %s\n", e.Time.Format("15:04:05"), e.Proto, e.From, e.Detail)
	}
	fmt.Printf("totals: %v from %d distinct visitors\n\n", hp.Interactions(), len(hp.Visitors()))

	fmt.Println("== Honeytoken propagation ==")
	hits := 0
	for _, r := range rt.Records {
		if hp.TokenAppearsIn([]byte(r.Value)) {
			hits++
			fmt.Printf("  token reached %s via %s (%s)\n", r.Endpoint, r.App, r.DataType)
		}
	}
	if hits == 0 {
		fmt.Println("  token not exfiltrated by this app")
	}

	fmt.Println("\n(run `go run ./cmd/iothoneypot` to deploy the same honeypot on a real network)")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
