// Threatscan: everything an attacker who just joined your Wi-Fi can learn
// and do. Scans the lab like nmap, audits services like Nessus, then proves
// the headline §5.1 finding by switching a TP-Link plug on with no
// credentials whatsoever.
package main

import (
	"fmt"
	"net/netip"
	"time"

	"iotlan"
	"iotlan/internal/netx"
	"iotlan/internal/tplink"
	"iotlan/internal/vuln"
)

func main() {
	study := iotlan.New(7, iotlan.WithIdleDuration(10*time.Minute))
	study.RunScans()
	study.RunVulnScans()

	fmt.Println("== What the attacker sees ==")
	op := study.OpenPorts()
	fmt.Println(op.Rendered)

	fmt.Println("== What the attacker can exploit ==")
	vs := study.VulnSummary()
	fmt.Println(vs.Rendered)
	for name, findings := range study.Findings {
		for _, f := range findings {
			if f.Severity >= vuln.High {
				fmt.Printf("  %-20s [%s] %s: %s\n", name, f.Severity, f.ID, f.Evidence)
			}
		}
	}

	// The §5.1 proof: control a TP-Link plug with zero authentication.
	fmt.Println("\n== Unauthenticated takeover of the TP-Link plug ==")
	plug := study.DeviceByName("tplink-plug")
	attacker := study.Lab.AddHost(66, netx.MAC{0x02, 0x66, 0, 0, 0, 0x66})
	tplink.Discover(attacker, func(info *tplink.SysInfo, from netip.Addr) {
		fmt.Printf("  discovered %q at %s — home location %.6f,%.6f in PLAINTEXT\n",
			info.Alias, from, info.Latitude, info.Longitude)
	})
	study.Lab.Sched.RunFor(2 * time.Second)
	tplink.Control(attacker, plug.IP(), true, func(ok bool) {
		fmt.Printf("  set_relay_state(on) accepted: %v — the plug switched for a stranger\n", ok)
	})
	study.Lab.Sched.RunFor(2 * time.Second)
}
