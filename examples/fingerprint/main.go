// Fingerprint: the tracker's-eye view. A free-to-play game bundling a
// network-scanning SDK runs on a phone in the smart home; this example shows
// exactly which identifiers leave the house, then quantifies how unique
// those identifiers make a household across thousands of homes (§6).
package main

import (
	"fmt"
	"time"

	"iotlan"
	"iotlan/internal/analysis"
	"iotlan/internal/app"
	"iotlan/internal/inspector"
)

func main() {
	study := iotlan.New(9, iotlan.WithIdleDuration(10*time.Minute))
	study.RunPassive()

	// A "lucky rewards" game with innosdk and a cleaner app with MyTracker
	// run on the instrumented phone — no dangerous permission between them.
	rt := app.NewRuntime(study.Lab, app.Android13)
	for _, a := range app.Dataset(9) {
		switch a.Package {
		case "com.luckyapp.winner", "com.fancyclean.boostmaster", "com.cnn.mobile.android.phone":
			aa := a
			fmt.Printf("running %s (permissions: %v)\n", a.Package, a.Permissions)
			rt.Run(&aa)
		}
	}

	fmt.Println("\n== What left the phone ==")
	for _, r := range rt.Records {
		sdk := r.SDK
		if sdk == "" {
			sdk = "first-party"
		}
		fmt.Printf("  %-28s via %-18s → %-26s %s=%q\n", r.App, sdk, r.Endpoint, r.DataType, truncate(r.Value, 44))
	}

	fmt.Println("\n== How identifying is that haul? (Table 2 over 3,860 households) ==")
	ds := inspector.Generate(9, 3860)
	fmt.Println(analysis.RenderEntropyTable(analysis.EntropyTable(ds)))
	fmt.Println("reference point: a web browser's User-Agent string carries ~10.5 bits (EFF).")
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
