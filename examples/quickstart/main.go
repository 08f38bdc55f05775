// Quickstart: boot the simulated 93-device smart home, capture fifteen
// minutes of local traffic, and print who talks to whom and which protocols
// dominate — the paper's Figure 1 and Figure 2 in three calls.
package main

import (
	"fmt"
	"time"

	"iotlan"
)

func main() {
	study := iotlan.New(42, iotlan.WithIdleDuration(15*time.Minute), iotlan.WithInteractions(20))
	study.RunPassive()

	fmt.Println("== Device-to-device communication (Figure 1) ==")
	f1 := study.Figure1()
	fmt.Println(f1.Rendered)
	fmt.Printf("%.0f%% of devices talk to another device locally; %.0f%% of edges stay inside a vendor/platform cluster\n\n",
		100*f1.Metrics["talker_fraction"], 100*f1.Metrics["intra_cluster_fraction"])

	fmt.Println("== Protocol prevalence (Figure 2) ==")
	f2 := study.Figure2()
	fmt.Println(f2.Rendered)
	fmt.Printf("an average device used %.1f local protocols; the busiest used %.0f\n",
		f2.Metrics["avg_protocols_per_device"], f2.Metrics["max_protocols_per_device"])
}
