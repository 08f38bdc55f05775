// Command iotbench times the simulator and writes a machine-readable
// benchmark record: the standard idle run (45 simulated minutes of the full
// 93-device lab), which make bench uses to produce BENCH_1.json so
// throughput regressions show up in review diffs.
//
// BENCH_4.json (serving throughput and the served-vs-offline determinism
// gate) is written by the companion load generator, cmd/iotload; the
// repository's end-to-end benchmark is bench/ (see bench/README.md).
//
// Usage:
//
//	iotbench [-seed N] [-idle 45m] [-out BENCH_1.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"iotlan/internal/sim"
	"iotlan/internal/testbed"
)

// record is the BENCH_1.json schema. Wall-clock fields vary run to run; the
// events/frames counts are seed-deterministic and double as a sanity check
// that two benchmark runs exercised identical workloads.
type record struct {
	Seed            int64   `json:"seed"`
	IdleVirtual     string  `json:"idle_virtual"`
	Devices         int     `json:"devices"`
	WallMS          float64 `json:"wall_ms"`
	VirtualS        float64 `json:"virtual_s"`
	Events          uint64  `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	FramesDelivered uint64  `json:"frames_delivered"`
	FramesPerSec    float64 `json:"frames_per_sec"`
}

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	idle := flag.Duration("idle", 45*time.Minute, "idle window to simulate")
	out := flag.String("out", "BENCH_1.json", "output file (\"-\" for stdout)")
	flag.Parse()

	lab := testbed.New(*seed)
	lab.Start()
	start := time.Now()
	lab.RunIdle(*idle)
	wall := time.Since(start)

	reg := lab.Telemetry().Registry
	rec := record{
		Seed:            *seed,
		IdleVirtual:     idle.String(),
		Devices:         len(lab.Devices),
		WallMS:          float64(wall) / float64(time.Millisecond),
		VirtualS:        lab.Sched.Now().Sub(sim.Epoch).Seconds(),
		Events:          reg.Total("sim_events_processed"),
		FramesDelivered: reg.CounterValue("lan_frames_delivered"),
	}
	if s := wall.Seconds(); s > 0 {
		rec.EventsPerSec = float64(rec.Events) / s
		rec.FramesPerSec = float64(rec.FramesDelivered) / s
	}
	writeJSON(rec, *out)
	fmt.Printf("bench: %d events in %.0f ms (%.0f events/sec, %.0f frames/sec) → %s\n",
		rec.Events, rec.WallMS, rec.EventsPerSec, rec.FramesPerSec, *out)
}

func writeJSON(v interface{}, out string) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if out == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
}
