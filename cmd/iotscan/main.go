// Command iotscan runs the active scanner and the Nessus-like auditor
// against the simulated lab, printing open services and vulnerability
// findings per device.
//
// Usage:
//
//	iotscan [-seed N] [-device NAME] [-full]
package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"iotlan"
	"iotlan/internal/scan"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	deviceName := flag.String("device", "", "scan a single device by catalog name")
	full := flag.Bool("full", false, "sweep all 65,535 TCP ports (slow)")
	flag.Parse()

	opts := []iotlan.Option{iotlan.WithIdleDuration(10 * time.Minute)}
	if *full {
		opts = append(opts, iotlan.WithFullPortSweep())
	}
	s := iotlan.New(*seed, opts...)
	s.RunScans()
	s.RunVulnScans()

	names := make([]string, 0, len(s.Scans))
	for n := range s.Scans {
		if *deviceName == "" || n == *deviceName {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		res := s.Scans[name]
		if len(res.TCPOpen)+len(res.UDPOpen) == 0 && len(s.Findings[name]) == 0 {
			continue
		}
		fmt.Printf("── %s (%s) ──\n", name, res.Target)
		for _, p := range res.TCPOpen {
			fmt.Printf("  tcp/%-6d %-14s → %s\n", p, scan.GuessService("tcp", p), scan.CorrectedService("tcp", p))
		}
		for _, p := range res.UDPOpen {
			fmt.Printf("  udp/%-6d %-14s → %s\n", p, scan.GuessService("udp", p), scan.CorrectedService("udp", p))
		}
		for _, f := range s.Findings[name] {
			fmt.Printf("  [%s] %s (port %d): %s — %s\n", f.Severity, f.ID, f.Port, f.Title, f.Evidence)
		}
		fmt.Println()
	}
}
