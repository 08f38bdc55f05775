package chaos

import (
	"testing"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
)

type stubNode struct {
	mac    netx.MAC
	frames [][]byte
}

func (n *stubNode) MAC() netx.MAC                { return n.mac }
func (n *stubNode) HandleFrame(p *layers.Packet) { n.frames = append(n.frames, p.Data) }

func frame(t *testing.T, src, dst netx.MAC) []byte {
	t.Helper()
	return layers.Serialize(
		&layers.Ethernet{Src: src, Dst: dst, EtherType: layers.EtherTypeIPv4},
		layers.RawPayload(make([]byte, 40)))
}

func setup(t *testing.T, seed int64, plan Plan) (*sim.Scheduler, *lan.Network, *Engine, *stubNode, *stubNode) {
	t.Helper()
	s := sim.NewScheduler(seed)
	n := lan.New(s)
	e := New(s, n, plan)
	a := &stubNode{mac: netx.MAC{2, 0, 0, 0, 0, 1}}
	b := &stubNode{mac: netx.MAC{2, 0, 0, 0, 0, 2}}
	n.Attach(a)
	n.Attach(b)
	return s, n, e, a, b
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	s, n, e, a, b := setup(t, 1, Plan{})
	if n.Impair != nil {
		t.Fatal("zero plan installed an impair hook")
	}
	for i := 0; i < 50; i++ {
		n.Send(frame(t, a.mac, b.mac))
	}
	s.RunFor(time.Second)
	if len(b.frames) != 50 {
		t.Fatalf("perfect network delivered %d/50", len(b.frames))
	}
	if e.Faults() != 0 {
		t.Fatalf("zero plan injected %d faults", e.Faults())
	}
}

func TestLossDropsSomeFramesAndCountsThem(t *testing.T) {
	s, n, e, a, b := setup(t, 7, Plan{Name: "t", Loss: 0.3})
	const sent = 400
	for i := 0; i < sent; i++ {
		n.Send(frame(t, a.mac, b.mac))
	}
	s.RunFor(time.Second)
	lost := sent - len(b.frames)
	if lost == 0 || lost == sent {
		t.Fatalf("loss=0.3 dropped %d/%d frames", lost, sent)
	}
	if got := s.Telemetry.Registry.CounterValue("chaos_faults{kind=loss}"); got != uint64(lost) {
		t.Fatalf("loss counter %d, want %d", got, lost)
	}
	if got := s.Telemetry.Registry.CounterValue("lan_frames_dropped{reason=chaos-loss}"); got != uint64(lost) {
		t.Fatalf("drop counter %d, want %d", got, lost)
	}
	if e.Faults() != uint64(lost) {
		t.Fatalf("Faults() = %d, want %d", e.Faults(), lost)
	}
}

func TestLossIsSeedDeterministic(t *testing.T) {
	deliveries := func(seed int64) int {
		s, n, _, a, b := setup(t, seed, Plan{Loss: 0.25})
		for i := 0; i < 200; i++ {
			n.Send(frame(t, a.mac, b.mac))
		}
		s.RunFor(time.Second)
		return len(b.frames)
	}
	if deliveries(42) != deliveries(42) {
		t.Fatal("same seed produced different loss patterns")
	}
	// Different seeds should (overwhelmingly) differ.
	if deliveries(1) == deliveries(2) && deliveries(3) == deliveries(4) {
		t.Fatal("loss pattern ignores the seed")
	}
}

func TestDuplicationDeliversExtraCopies(t *testing.T) {
	s, n, _, a, b := setup(t, 3, Plan{Duplicate: 1.0})
	n.Send(frame(t, a.mac, b.mac))
	s.RunFor(time.Second)
	if len(b.frames) != 2 {
		t.Fatalf("duplicate=1.0 delivered %d copies, want 2", len(b.frames))
	}
}

func TestExtraLatencyStaysBounded(t *testing.T) {
	s, n, _, a, b := setup(t, 5, Plan{MaxExtraLatency: 5 * time.Millisecond})
	start := s.Now()
	var deliveredAt time.Time
	hook := &hookNode{stubNode: b, sched: s, at: &deliveredAt}
	n.Attach(hook)
	n.Send(frame(t, a.mac, b.mac))
	s.RunFor(time.Second)
	d := deliveredAt.Sub(start)
	if d < lan.Latency || d >= lan.Latency+5*time.Millisecond {
		t.Fatalf("delivery delay %v outside [%v, %v)", d, lan.Latency, lan.Latency+5*time.Millisecond)
	}
}

type hookNode struct {
	*stubNode
	sched *sim.Scheduler
	at    *time.Time
}

func (h *hookNode) HandleFrame(p *layers.Packet) {
	*h.at = h.sched.Now()
	h.stubNode.HandleFrame(p)
}

func TestPartitionBlocksCrossTrafficOnlyDuringWindow(t *testing.T) {
	plan := Plan{Partitions: []Partition{{Start: time.Minute, Duration: time.Minute, Isolate: 0.5}}}
	// Find two MACs on opposite sides of partition 0.
	var left, right netx.MAC
	found := false
	for i := byte(1); i < 100 && !found; i++ {
		m := netx.MAC{2, 0, 0, 0, 0, i}
		if isolated(m, 0, 0.5) {
			left = m
		} else {
			right = m
		}
		found = left != (netx.MAC{}) && right != (netx.MAC{})
	}
	if !found {
		t.Fatal("hash put every MAC on one side")
	}
	s := sim.NewScheduler(9)
	n := lan.New(s)
	New(s, n, plan)
	a := &stubNode{mac: left}
	b := &stubNode{mac: right}
	n.Attach(a)
	n.Attach(b)

	n.Send(frame(t, a.mac, b.mac)) // before the window: flows
	s.RunFor(90 * time.Second)     // now inside the window
	n.Send(frame(t, a.mac, b.mac)) // dropped
	s.RunFor(60 * time.Second)     // past the window
	n.Send(frame(t, a.mac, b.mac)) // flows again
	s.RunFor(time.Second)

	if len(b.frames) != 2 {
		t.Fatalf("cross-partition deliveries = %d, want 2", len(b.frames))
	}
	if got := s.Telemetry.Registry.CounterValue("lan_frames_dropped{reason=chaos-partition}"); got != 1 {
		t.Fatalf("partition drops = %d, want 1", got)
	}
}

func TestPartitionSideAssignmentIsStable(t *testing.T) {
	m := netx.MAC{0x02, 0x42, 0xc0, 0xa8, 0x0a, 0x07}
	want := isolated(m, 1, 0.4)
	for i := 0; i < 10; i++ {
		if isolated(m, 1, 0.4) != want {
			t.Fatal("isolated() is not a pure function of (mac, idx, frac)")
		}
	}
	// Different partition indices should re-deal the sides for some MACs.
	differs := false
	for i := byte(0); i < 50; i++ {
		m := netx.MAC{2, 0, 0, 0, 1, i}
		if isolated(m, 0, 0.5) != isolated(m, 1, 0.5) {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("partition index never changes side assignment")
	}
}

func TestCorruptInjectsMalformedCopies(t *testing.T) {
	s, n, _, a, b := setup(t, 11, Plan{Corrupt: 1.0})
	n.Send(frame(t, a.mac, b.mac))
	s.RunFor(time.Second)
	if got := s.Telemetry.Registry.CounterValue("chaos_faults{kind=corrupt}"); got != 1 {
		t.Fatalf("corrupt faults = %d, want 1 (no re-corruption of injected frames)", got)
	}
	// The original always arrives; the mutant may or may not still be
	// routable to b, but the network must have processed it without panic.
	if len(b.frames) < 1 {
		t.Fatal("original frame lost")
	}
}

func TestChurnCrashesAndRestarts(t *testing.T) {
	plan := Plan{Churn: &Churn{Start: time.Second, Interval: 10 * time.Second, Downtime: 2 * time.Second}}
	s := sim.NewScheduler(13)
	n := lan.New(s)
	e := New(s, n, plan)
	d := &fakeChurnable{}
	e.StartChurn([]Churnable{d})
	// Crashes at 1, 11 and 21 s, each restarted 2 s later.
	s.RunFor(25 * time.Second)
	if d.crashes != 3 || d.restarts != 3 {
		t.Fatalf("crashes=%d restarts=%d, want 3/3 in 25 s", d.crashes, d.restarts)
	}
	if got := s.Telemetry.Registry.CounterValue("chaos_faults{kind=crash}"); got != 3 {
		t.Fatalf("crash faults = %d, want 3", got)
	}
}

type fakeChurnable struct {
	down              bool
	crashes, restarts int
}

func (f *fakeChurnable) Name() string { return "fake" }
func (f *fakeChurnable) Crash() bool {
	if f.down {
		return false
	}
	f.down = true
	f.crashes++
	return true
}
func (f *fakeChurnable) Restart() { f.down = false; f.restarts++ }

func TestProfileResolution(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := Profile(name)
		if err != nil || !p.Enabled() {
			t.Fatalf("profile %q: err=%v enabled=%v", name, err, p.Enabled())
		}
	}
	if p, err := Profile("off"); err != nil || p.Enabled() {
		t.Fatalf("off: err=%v enabled=%v", err, p.Enabled())
	}
	if _, err := Profile("no-such-profile"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if (Plan{}).String() != "off" {
		t.Fatal("zero plan should render as off")
	}
}

func TestEnablingChaosDoesNotConsumeSchedulerRNG(t *testing.T) {
	draw := func(plan Plan) int64 {
		s, n, _, a, b := setup(t, 21, plan)
		for i := 0; i < 100; i++ {
			n.Send(frame(t, a.mac, b.mac))
		}
		s.RunFor(time.Second)
		return s.Rand().Int63()
	}
	if draw(Plan{}) != draw(Plan{Loss: 0.5, Corrupt: 0.5, MaxExtraLatency: time.Millisecond}) {
		t.Fatal("chaos perturbed the scheduler's main random stream")
	}
}
