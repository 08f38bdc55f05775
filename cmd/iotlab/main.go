// Command iotlab boots the simulated 93-device testbed, captures its local
// traffic, and writes per-device pcap files — the MonIoTr data-collection
// step in miniature.
//
// Usage:
//
//	iotlab [-seed N] [-idle 1h] [-interactions 100] [-residents N -days D]
//	       [-out pcaps/]
//
// -out streams every frame into one pcap file per source MAC
// (DIR/<mac>.pcap) as it is sent; a file that cannot be created or written
// fails the run.
//
// -residents N replaces the idle + scripted-interaction workload with N
// persona-driven residents over -days simulated days (see
// internal/resident); -schedule prints the compiled event schedule.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"iotlan"
	"iotlan/internal/pcap"
	"iotlan/internal/resident"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	idle := flag.Duration("idle", time.Hour, "idle capture window")
	interactions := flag.Int("interactions", 100, "scripted interactions after the idle window")
	residents := flag.Int("residents", 0, "persona-driven residents (0 = classic workload)")
	days := flag.Int("days", 3, "simulated days when -residents is set")
	schedule := flag.Bool("schedule", false, "print the compiled resident schedule")
	out := flag.String("out", "", "directory to stream per-device pcap files into as frames are sent (empty = skip)")
	flag.Parse()

	opts := []iotlan.Option{iotlan.WithResidents(resident.Household(*residents, *days))}
	var pcaps *pcap.MACWriter
	if *out != "" {
		var err error
		if pcaps, err = pcap.NewMACWriter(*out); err != nil {
			fmt.Fprintln(os.Stderr, "pcap dump:", err)
			os.Exit(1)
		}
		opts = append(opts, iotlan.WithPcapWriter(pcaps))
	}
	s := iotlan.New(*seed, opts...)
	s.IdleDuration = *idle
	s.Interactions = *interactions
	start := time.Now()
	s.RunPassive()
	if *schedule && s.Lab.Residents != nil {
		fmt.Print(s.Lab.Residents.Render())
	}

	fmt.Printf("lab: %s (wall %s)\n\n", s.Lab.Summary(), time.Since(start).Truncate(time.Millisecond))
	fmt.Printf("%-24s %-16s %s\n", "device", "ip", "mac")
	ips := s.DeviceIPs()
	names := make([]string, 0, len(ips))
	for n := range ips {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := s.DeviceByName(n)
		fmt.Printf("%-24s %-16s %s\n", n, ips[n], d.MAC())
	}
	fmt.Printf("\ncaptured %d frames (%d local)\n", s.Lab.Capture.Len(), len(s.PassiveIndex().Local()))

	if pcaps != nil {
		if err := pcaps.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pcap dump:", err)
			os.Exit(1)
		}
		fmt.Printf("per-device pcaps in %s\n", *out)
	}
}
