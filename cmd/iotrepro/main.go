// Command iotrepro regenerates every table and figure of the paper in one
// run and prints them in paper order, with the headline metrics inline.
//
// Usage:
//
//	iotrepro [-seed N] [-idle 45m] [-interactions 120] [-households 3860]
//	         [-apps 0] [-workers 0] [-chaos PROFILE] [-residents N -days D]
//	         [-artifact NAME] [-list] [-pcap-dir DIR] [-metrics FILE]
//	         [-trace FILE] [-http ADDR]
//
// -list prints the artifact registry (name, kind, paper reference, needed
// pipelines) and exits. -artifact runs a single registered artifact by name
// or alias ("figure1", "tab2", "ports", …), executing only the pipelines it
// needs. -workers bounds analysis concurrency (0 = one worker per CPU) —
// worker count never changes output bytes.
//
// -chaos runs the lab under a named fault-injection profile (lossy, flaky,
// partition, churn, degraded — "off" disables). The same (seed, profile)
// pair produces byte-identical output on any worker count; the "chaos"
// artifact summarises what was injected.
//
// -residents N drives the lab with N persona-compiled household residents
// for -days simulated days instead of the fixed-pace interaction loop:
// diurnal device interactions, app foreground sessions, occupancy sensor
// chatter, and longitudinal drift (devices added/retired, firmware
// updates). The "diurnal" artifact renders the resulting hour-of-day
// structure. Composes with -chaos; same seed ⇒ byte-identical run.
//
// -pcap-dir streams every frame the lab sends, in every phase the run
// needs, into one pcap file per source MAC (DIR/<mac>.pcap, like the
// testbed AP's per-device captures) as it is sent. A run that builds no
// lab writes no file. A file that cannot be created or written fails the
// run.
//
// -metrics writes the lab's metrics registry snapshot as JSON; a seed
// always writes the same bytes. -trace writes the simulation's trace: each
// phase (passive, scans, vuln, apps, inspector) is a span on the lab's
// virtual clock and each simulator event a zero-duration child of its
// phase, so a seed always writes the same trace too. A .jsonl suffix
// selects one span per JSON line, anything else the Chrome trace_event
// format with one lane per phase (load in chrome://tracing or Perfetto).
// Neither holds wall time; the benchmark's repro workload times each phase
// and artifact (bench/README.md). -http mounts
// the shared operational surface from internal/serve while the run
// executes — the lab's live metrics at /metrics, /healthz, expvar's Go
// runtime state (/debug/vars), and pprof (/debug/pprof/); opt-in, nothing
// listens by default.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"iotlan"
	"iotlan/internal/chaos"
	"iotlan/internal/obs"
	"iotlan/internal/pcap"
	"iotlan/internal/resident"
	"iotlan/internal/serve"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed (same seed → identical run)")
	idle := flag.Duration("idle", 45*time.Minute, "idle capture window (paper: 5 days)")
	interactions := flag.Int("interactions", 120, "scripted interactions (paper: 7,191)")
	households := flag.Int("households", 3860, "crowdsourced households (paper: 3,860)")
	apps := flag.Int("apps", 0, "max apps to execute (0 = all with local behaviour)")
	workers := flag.Int("workers", 0, "analysis worker count (0 = one per CPU; never changes output)")
	chaosName := flag.String("chaos", "off",
		"fault-injection profile: "+strings.Join(chaos.ProfileNames(), ", ")+", or off")
	residents := flag.Int("residents", 0,
		"persona-driven residents (0 = classic scripted workload; personas cycle "+
			strings.Join(resident.PersonaNames(), ", ")+")")
	days := flag.Int("days", 3, "simulated days when -residents is set")
	artifact := flag.String("artifact", "", "run a single registered artifact by name (see -list)")
	list := flag.Bool("list", false, "print the artifact registry and exit")
	pcapDir := flag.String("pcap-dir", "", "stream every frame the lab sends into one pcap file per source MAC in this directory")
	exportDir := flag.String("export", "", "also export datasets (scans, findings, exfiltration, …) as JSON into this directory")
	metricsFile := flag.String("metrics", "", "write the lab's metrics snapshot as JSON to this file (\"-\" for stdout)")
	traceFile := flag.String("trace", "", "write the simulation trace, spans on the virtual clock, to this file (.jsonl → JSON lines, else Chrome trace_event)")
	httpAddr := flag.String("http", "", "serve live /metrics, expvar and pprof on this address (e.g. localhost:6060) while the run executes")
	flag.Parse()

	if *list {
		fmt.Printf("%-14s %-9s %-14s %s\n", "NAME", "KIND", "PAPER", "NEEDS")
		for _, a := range iotlan.Artifacts() {
			fmt.Printf("%-14s %-9s %-14s %s\n", a.Name, a.Kind, a.PaperRef, a.Needs)
		}
		return
	}

	plan, err := chaos.Profile(*chaosName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := []iotlan.Option{
		iotlan.WithIdleDuration(*idle),
		iotlan.WithInteractions(*interactions),
		iotlan.WithHouseholds(*households),
		iotlan.WithApps(*apps),
		iotlan.WithWorkers(*workers),
		iotlan.WithChaos(plan),
		iotlan.WithResidents(resident.Household(*residents, *days)),
	}
	var pcaps *pcap.MACWriter
	if *pcapDir != "" {
		if pcaps, err = pcap.NewMACWriter(*pcapDir); err != nil {
			fmt.Fprintln(os.Stderr, "pcap dump:", err)
			os.Exit(1)
		}
		opts = append(opts, iotlan.WithPcapWriter(pcaps))
	}
	var traceOut *os.File
	var tracer *obs.Tracer
	if *traceFile != "" {
		if traceOut, err = os.Create(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		format := obs.FormatChrome
		if strings.HasSuffix(*traceFile, ".jsonl") {
			format = obs.FormatJSONL
		}
		tracer = obs.NewTracer(traceOut, format)
		opts = append(opts, iotlan.WithTrace(tracer))
	}
	s := iotlan.New(*seed, opts...)

	if *httpAddr != "" {
		// One shared operational surface with iotserve: /metrics, /healthz,
		// expvar, pprof — behind an http.Server with real timeouts instead
		// of the unbounded zero-valued default.
		mux := serve.DebugMux(serve.MetricsSource{Name: "lab", Lazy: func() *obs.Registry {
			if s.Lab == nil {
				return nil
			}
			return s.Lab.Telemetry().Registry
		}})
		httpSrv := serve.NewHTTPServer(*httpAddr, mux)
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "telemetry endpoint on http://%s/metrics (expvar under /debug/vars, pprof under /debug/pprof/)\n", *httpAddr)
	}

	start := time.Now()
	var results []iotlan.Result
	if *artifact != "" {
		r, err := s.RunArtifact(*artifact)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		results = []iotlan.Result{r}
	} else {
		results = s.Everything()
	}

	for _, r := range results {
		fmt.Printf("════════ %s ════════\n%s\n", r.ID, r.Rendered)
		if len(r.Metrics) > 0 {
			keys := make([]string, 0, len(r.Metrics))
			for k := range r.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Println("metrics:")
			for _, k := range keys {
				fmt.Printf("  %-40s %.2f\n", k, r.Metrics[k])
			}
		}
		fmt.Println()
	}
	if *exportDir != "" {
		if err := s.Export(*exportDir); err != nil {
			fmt.Fprintln(os.Stderr, "export:", err)
			os.Exit(1)
		}
		fmt.Printf("datasets exported to %s\n", *exportDir)
	}
	if pcaps != nil {
		if err := pcaps.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pcap dump:", err)
			os.Exit(1)
		}
		fmt.Printf("per-device pcaps written to %s\n", *pcapDir)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
		}
		fmt.Printf("trace: %d spans written to %s\n", tracer.Events(), *traceFile)
		traceOut.Close()
	}
	if *metricsFile != "" {
		reg := obs.NewRegistry() // an artifact that needs no lab leaves it empty
		if s.Lab != nil {
			reg = s.Lab.Telemetry().Registry
		}
		if *metricsFile == "-" {
			os.Stdout.Write(reg.Snapshot())
		} else if err := os.WriteFile(*metricsFile, reg.Snapshot(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		} else {
			fmt.Printf("metrics: %d series written to %s\n", reg.SeriesCount(), *metricsFile)
		}
	}
	if s.Lab != nil {
		fmt.Printf("lab: %s\n", s.Lab.Summary())
	}
	fmt.Printf("wall time: %s\n", time.Since(start).Truncate(time.Millisecond))
}
