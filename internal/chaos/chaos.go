// Package chaos is the deterministic fault-injection layer for the virtual
// LAN. The paper's measurements come from a lossy, messy real network —
// retransmissions, devices rebooting mid-capture, malformed local frames —
// and this package reproduces those conditions on the simulated testbed so
// the analysis pipeline's robustness is exercised, not assumed.
//
// A Plan configures per-link impairments (probabilistic frame loss,
// duplication, reordering via jittered redelivery, bounded extra latency,
// partition windows), device churn (crash/restart with a DHCP re-lease) and
// malformed-frame injection (truncated or bit-flipped copies of real
// frames). An Engine attaches a Plan to a lan.Network.
//
// Determinism contract: every random decision is drawn from a dedicated
// stream derived from the scheduler seed (sim.Scheduler.SubRand), and every
// decision is made in simulation-event context. The same (seed, Plan) pair
// therefore produces a byte-identical capture — and byte-identical analysis
// exports — on any analysis worker count, matching the engine contract of
// the parallel analysis layer. Enabling chaos never perturbs the base
// simulation's random sequence, so a plan changes only what it impairs.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/netx"
	"iotlan/internal/obs"
	"iotlan/internal/sim"
)

// rngStream is the SubRand stream tag for the chaos random stream.
const rngStream = 0xc4a05

// Partition is one network-partition window: for its duration, a
// deterministic subset of stations (chosen by hashing their MAC) is isolated
// from the rest of the LAN. Frames crossing the partition boundary are
// dropped with reason lan.DropChaosPartition; traffic within either side
// still flows.
type Partition struct {
	// Start is the window's offset from the simulation epoch.
	Start time.Duration
	// Duration is how long the window lasts.
	Duration time.Duration
	// Isolate is the fraction of stations on the isolated side (0,1).
	Isolate float64
}

func (p Partition) active(since time.Duration) bool {
	return since >= p.Start && since < p.Start+p.Duration
}

// Churn schedules periodic device crash/restart cycles. A crashed device
// goes silent and leaves the switch's station table; on restart it rejoins
// and re-runs its DHCP lease exchange, like a real device rebooting
// mid-capture.
type Churn struct {
	// Start delays the first crash (lets the lab boot and lease addresses).
	Start time.Duration
	// Interval is the crash cadence, with ±Jitter applied per cycle.
	Interval time.Duration
	Jitter   time.Duration
	// Downtime is how long a crashed device stays down before restarting.
	Downtime time.Duration
}

// Plan is a full fault-injection configuration. The zero Plan injects
// nothing (Enabled reports false).
type Plan struct {
	// Name labels the plan in telemetry and CLI output.
	Name string
	// Loss is the per-delivery frame-loss probability [0,1).
	Loss float64
	// Duplicate is the per-delivery probability of one extra delayed copy.
	Duplicate float64
	// Reorder is the per-delivery probability of a jittered redelivery: the
	// frame is held back several base latencies, arriving after frames sent
	// later.
	Reorder float64
	// MaxExtraLatency adds a uniform random delay in [0, MaxExtraLatency)
	// to every delivery (0 disables).
	MaxExtraLatency time.Duration
	// Corrupt is the per-sent-frame probability of injecting a malformed
	// copy (truncated or bit-flipped) of that frame onto the LAN.
	Corrupt float64
	// Partitions are the partition windows, applied independently.
	Partitions []Partition
	// Churn configures device crash/restart cycles (nil disables).
	Churn *Churn
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.Loss > 0 || p.Duplicate > 0 || p.Reorder > 0 || p.MaxExtraLatency > 0 ||
		p.Corrupt > 0 || len(p.Partitions) > 0 || p.Churn != nil
}

// String renders the plan compactly for CLI/summary output.
func (p Plan) String() string {
	if !p.Enabled() {
		return "off"
	}
	var parts []string
	if p.Loss > 0 {
		parts = append(parts, fmt.Sprintf("loss=%.1f%%", p.Loss*100))
	}
	if p.Duplicate > 0 {
		parts = append(parts, fmt.Sprintf("dup=%.1f%%", p.Duplicate*100))
	}
	if p.Reorder > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%.1f%%", p.Reorder*100))
	}
	if p.MaxExtraLatency > 0 {
		parts = append(parts, fmt.Sprintf("jitter<%s", p.MaxExtraLatency))
	}
	if p.Corrupt > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%.1f%%", p.Corrupt*100))
	}
	if len(p.Partitions) > 0 {
		parts = append(parts, fmt.Sprintf("partitions=%d", len(p.Partitions)))
	}
	if p.Churn != nil {
		parts = append(parts, fmt.Sprintf("churn@%s", p.Churn.Interval))
	}
	name := p.Name
	if name == "" {
		name = "custom"
	}
	return name + "(" + strings.Join(parts, " ") + ")"
}

// profiles are the named impairment profiles the CLI exposes. Each maps a
// degraded-network condition the paper's captures exhibit onto plan knobs:
// "lossy" is ordinary Wi-Fi contention, "flaky" adds malformed local frames
// (the honeypots' garbage traffic), "partition" models a room dropping off
// the AP, "churn" models devices rebooting mid-capture, and "degraded"
// combines everything for worst-case robustness runs.
var profiles = []Plan{
	{Name: "lossy", Loss: 0.05, Duplicate: 0.01, Reorder: 0.03, MaxExtraLatency: 2 * time.Millisecond},
	{Name: "flaky", Loss: 0.02, Corrupt: 0.03, MaxExtraLatency: time.Millisecond},
	{Name: "partition", Partitions: []Partition{
		{Start: 5 * time.Minute, Duration: 4 * time.Minute, Isolate: 0.4},
		{Start: 20 * time.Minute, Duration: 6 * time.Minute, Isolate: 0.5},
	}},
	{Name: "churn", Churn: &Churn{Start: 4 * time.Minute, Interval: 3 * time.Minute,
		Jitter: time.Minute, Downtime: 90 * time.Second}},
	{Name: "degraded", Loss: 0.04, Duplicate: 0.01, Reorder: 0.02,
		MaxExtraLatency: 2 * time.Millisecond, Corrupt: 0.02,
		Partitions: []Partition{{Start: 90 * time.Second, Duration: time.Minute, Isolate: 0.3}},
		Churn:      &Churn{Start: time.Minute, Interval: 75 * time.Second, Downtime: 30 * time.Second}},
}

// ProfileNames lists the named profiles, sorted.
func ProfileNames() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// Profile resolves a named profile, case-insensitively. "off" and "" return
// the zero (disabled) Plan.
func Profile(name string) (Plan, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	if want == "" || want == "off" || want == "none" {
		return Plan{}, nil
	}
	for _, p := range profiles {
		if p.Name == want {
			return p, nil
		}
	}
	return Plan{}, fmt.Errorf("chaos: unknown profile %q (known: %s, off)", name, strings.Join(ProfileNames(), ", "))
}

// Churnable is a device runtime the churn loop can crash and restart. Crash
// reports whether the device actually went down (already-crashed or
// never-started devices refuse).
type Churnable interface {
	Name() string
	Crash() bool
	Restart()
}

// Engine applies a Plan to a network. Create one with New before the
// simulation starts.
type Engine struct {
	Plan  Plan
	sched *sim.Scheduler
	net   *lan.Network
	rng   *rand.Rand

	// injecting guards the corruption tap against re-corrupting its own
	// injected frames (the simulation is single-threaded, so a flag works).
	injecting bool

	faults map[string]*obs.Counter
}

// New attaches a fault-injection engine for plan to the network. The engine
// installs the network's Impair hook and, when the plan corrupts frames, a
// capture-style tap that schedules malformed copies. Call StartChurn after
// building device runtimes to enable crash/restart cycles.
func New(sched *sim.Scheduler, network *lan.Network, plan Plan) *Engine {
	e := &Engine{
		Plan:   plan,
		sched:  sched,
		net:    network,
		rng:    sched.SubRand(rngStream),
		faults: make(map[string]*obs.Counter),
	}
	if !plan.Enabled() {
		return e
	}
	network.Impair = e.impair
	if plan.Corrupt > 0 {
		network.Tap(e.maybeCorrupt)
	}
	return e
}

// count records one injected fault under chaos_faults{kind=...}.
func (e *Engine) count(kind string) {
	c, ok := e.faults[kind]
	if !ok {
		c = e.sched.Telemetry.Registry.Counter("chaos_faults", "kind", kind)
		e.faults[kind] = c
	}
	c.Inc()
}

// Faults reports the total number of injected faults across all kinds.
func (e *Engine) Faults() uint64 {
	return e.sched.Telemetry.Registry.Total("chaos_faults")
}

// impair is the per-delivery decision hook. Draw order is fixed (partition,
// loss, latency, reorder, duplicate) so a plan's random stream is stable.
func (e *Engine) impair(src, dst netx.MAC, multicast bool, frame []byte) lan.Verdict {
	since := e.sched.Now().Sub(sim.Epoch)
	for i, pw := range e.Plan.Partitions {
		if pw.active(since) && isolated(src, i, pw.Isolate) != isolated(dst, i, pw.Isolate) {
			e.count("partition")
			return lan.Verdict{Drop: true, Reason: lan.DropChaosPartition}
		}
	}
	if e.Plan.Loss > 0 && e.rng.Float64() < e.Plan.Loss {
		e.count("loss")
		return lan.Verdict{Drop: true, Reason: lan.DropChaosLoss}
	}
	var v lan.Verdict
	if e.Plan.MaxExtraLatency > 0 {
		v.ExtraDelay = time.Duration(e.rng.Int63n(int64(e.Plan.MaxExtraLatency)))
	}
	if e.Plan.Reorder > 0 && e.rng.Float64() < e.Plan.Reorder {
		// Hold the frame back several propagation delays: frames sent later
		// overtake it, which is what reordering looks like to a receiver.
		v.ExtraDelay += lan.Latency * time.Duration(2+e.rng.Intn(6))
		e.count("reorder")
	}
	if e.Plan.Duplicate > 0 && e.rng.Float64() < e.Plan.Duplicate {
		v.Duplicates = 1
		v.DuplicateGap = lan.Latency
		e.count("duplicate")
	}
	return v
}

// isolated deterministically assigns a MAC to one side of partition idx via
// a splitmix64-style hash, so a plan partitions the same stations on every
// run regardless of attach order.
func isolated(mac netx.MAC, idx int, frac float64) bool {
	var x uint64
	for _, b := range mac {
		x = x<<8 | uint64(b)
	}
	x ^= uint64(idx+1) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x%10000) < frac*10000
}

// maybeCorrupt observes every sent frame (as a tap) and occasionally
// schedules a malformed copy — truncated, bit-flipped, or both — shortly
// after the original, reproducing the malformed local traffic real captures
// contain. Injected copies are themselves exempt from corruption.
func (e *Engine) maybeCorrupt(_ time.Time, frame []byte) {
	if e.injecting || len(frame) < 15 {
		return
	}
	if e.rng.Float64() >= e.Plan.Corrupt {
		return
	}
	bad := append([]byte(nil), frame...)
	mode := e.rng.Intn(3)
	if mode == 0 || mode == 2 { // truncate somewhere past the first byte
		bad = bad[:1+e.rng.Intn(len(bad)-1)]
	}
	if mode == 1 || mode == 2 { // flip 1–4 random bits
		for i, flips := 0, 1+e.rng.Intn(4); i < flips && len(bad) > 0; i++ {
			pos := e.rng.Intn(len(bad))
			bad[pos] ^= 1 << uint(e.rng.Intn(8))
		}
	}
	e.count("corrupt")
	delay := time.Duration(1+e.rng.Intn(2000)) * time.Microsecond
	e.sched.AfterTagged("chaos", delay, func() {
		e.injecting = true
		e.net.Send(bad)
		e.injecting = false
	})
}

// StartChurn begins the crash/restart loop over the given devices. Each
// cycle crashes one deterministically chosen device and restarts it after
// the plan's downtime. Safe to call with an empty slice or a plan without
// churn (no-op).
func (e *Engine) StartChurn(devs []Churnable) {
	c := e.Plan.Churn
	if c == nil || len(devs) == 0 {
		return
	}
	e.sched.EveryTagged("chaos", c.Start, c.Interval, c.Jitter, func() {
		d := devs[e.rng.Intn(len(devs))]
		if !d.Crash() {
			return // already down or never started; try again next cycle
		}
		e.count("crash")
		if e.sched.Tracing() {
			e.sched.TraceEvent("chaos", "crash", "device", d.Name())
		}
		e.sched.AfterTagged("chaos", c.Downtime, func() {
			d.Restart()
			e.count("restart")
			if e.sched.Tracing() {
				e.sched.TraceEvent("chaos", "restart", "device", d.Name())
			}
		})
	})
}
