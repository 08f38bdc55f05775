// Command bench is the repository's benchmark. It runs three workloads —
// the paper reproduction (repro), durable ingest into iotserve (ingest) and
// artifact reads while the fleet churns (churn_read) — checks each one's
// outputs against the offline pipeline, and prints every end-to-end metric
// with its name and unit. A traced run (-trace 1) reports the per-layer
// metrics instead and writes one Chrome trace per workload.
//
// Build and run it from the repository root with bench/run.sh:
//
//	bash bench/run.sh                                 # every workload
//	bash bench/run.sh -workload ingest -seed 3        # one workload
//	bash bench/run.sh -workload repro -trace 1        # per-layer metrics
//
// Each workload runs in a fresh child process (a re-exec of this binary).
// The parent gives the child three times the workload's reference duration;
// past that it sends SIGQUIT, which makes the Go runtime dump every
// goroutine to stderr, records the workload as failed and exits non-zero.
// The last line of standard output of a successful workload is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childEnv marks a re-executed child that runs one workload in-process.
const childEnv = "IOTLAN_BENCH_CHILD"

// windowSeconds is every workload's measurement window. The workload sizes
// are constants tuned to it, and BENCHMARK.json's run_seconds records it
// (bench_test.go keeps the two equal).
const windowSeconds = 15

type options struct {
	workload string
	seed     int64
	trace    bool
	out      string
}

func main() {
	var o options
	var trace, seconds int
	flag.StringVar(&o.workload, "workload", "", "workload to run: repro, ingest or churn_read (empty = all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", windowSeconds, "measurement window in seconds; must be the fixed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a Chrome trace per workload")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for durable server state and trace files")
	flag.Parse()
	o.trace = trace == 1
	if err := o.validate(trace, seconds); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if os.Getenv(childEnv) != "" {
		os.Exit(runChild(o))
	}
	names := workloads
	if o.workload != "" {
		names = []string{o.workload}
	}
	failed := false
	for _, name := range names {
		if err := supervise(o, name); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s failed: %v\n", name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func (o options) validate(trace, seconds int) error {
	if o.workload != "" && !known(o.workload) {
		return fmt.Errorf("unknown -workload %q (want one of %v)", o.workload, workloads)
	}
	if seconds != windowSeconds {
		return fmt.Errorf("-seconds %d: the window is fixed at %d s, as BENCHMARK.json's run_seconds says", seconds, windowSeconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	return nil
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// referenceDuration is how long a workload takes on the reference host (2
// cores): set-up, the window, checks and, when traced, the layer replays and
// probes.
func referenceDuration(name string, trace bool) time.Duration {
	s := map[string]int{"repro": 40, "ingest": 35, "churn_read": 25}[name]
	if trace {
		s += 15
	}
	return time.Duration(s) * time.Second
}

// maxDeadline caps a child's deadline so that a hung run, its goroutine
// dump and the kill that may follow still end within three minutes.
const maxDeadline = 150 * time.Second

// supervise runs one workload in a child process under a deadline.
func supervise(o options, name string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-trace", trace, "-out", o.out)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return runWithDeadline(cmd, min(3*referenceDuration(name, o.trace), maxDeadline))
}

// runWithDeadline runs cmd and waits for it. Past the deadline it sends
// SIGQUIT — a Go child's runtime then prints every goroutine's stack and
// exits — and SIGKILL if even that does not end it, and reports a failure.
func runWithDeadline(cmd *exec.Cmd, deadline time.Duration) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(deadline):
	}
	_ = cmd.Process.Signal(syscall.SIGQUIT)
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
	}
	return fmt.Errorf("no result within %s; goroutine dump on stderr", deadline)
}

// hostBlock describes where and at what size a run was measured.
type hostBlock struct {
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Sizes      map[string]any `json:"sizes"`
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runChild runs one workload in this process and prints its result.
func runChild(o options) int {
	sz := fullSizes()
	e := &env{seed: o.seed, sz: sz, trace: o.trace, dir: filepath.Join(o.out, o.workload)}
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	host := hostBlock{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Workload: o.workload, Seed: o.seed, Sizes: sz.describe(o.workload),
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)

	var rep *report
	var err error
	if o.trace {
		rep, err = traced(o.workload, e, filepath.Join(o.out, o.workload+".trace.json"))
	} else {
		rep, err = measure(o.workload, e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	res := rep.result(o.trace)
	for _, line := range rep.info {
		fmt.Println(line)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, g := range rep.gateErrs {
		fmt.Fprintf(os.Stderr, "bench: %s: correctness gate failed: %v\n", o.workload, g)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// result assembles the final line: end-to-end metrics untraced, per-layer
// metrics traced.
func (r *report) result(trace bool) result {
	res := result{
		Correct:   len(r.gateErrs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, values := e2eMetrics, r.e2e()
	if trace {
		defs, values = layerMetrics, r.layers
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// measure runs one workload in this process.
func measure(name string, e *env) (*report, error) {
	run := map[string]func(*env) (*report, error){
		"repro": runRepro, "ingest": runIngest, "churn_read": runChurn,
	}[name]
	if run == nil {
		return nil, errors.New("unknown workload " + name)
	}
	r, err := run(e)
	if err != nil {
		return nil, err
	}
	r.layers[opLatency] = ms(median(r.opsNorm))
	r.layers["host.calib_ms"] = ms(median(e.calib.readings))
	r.layers["client.op_p50_ms"] = ms(median(r.ops))
	r.layers["client.op_p90_ms"] = ms(quantile(r.ops, 0.90))
	r.layers["client.ops_per_s"] = float64(len(r.ops)) / r.opsElapsed.Seconds()
	r.info = append(r.info, fmt.Sprintf("%s: %d operations, p50 %.4g ms at reference speed; raw p50 %.4g ms, p90 %.4g ms, %.4g/s; calibration %.4g ms (reference %.4g ms)",
		name, len(r.ops), r.layers[opLatency], r.layers["client.op_p50_ms"], r.layers["client.op_p90_ms"],
		r.layers["client.ops_per_s"], r.layers["host.calib_ms"], ms(calibRef)))
	return r, nil
}
