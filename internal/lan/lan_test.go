package lan

import (
	"testing"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
)

// stubNode records the bytes of the frames it receives.
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
		layers.RawPayload(make([]byte, 30)))
}

func setup() (*sim.Scheduler, *Network, *stubNode, *stubNode, *stubNode) {
	s := sim.NewScheduler(1)
	n := New(s)
	a := &stubNode{mac: netx.MAC{2, 0, 0, 0, 0, 1}}
	b := &stubNode{mac: netx.MAC{2, 0, 0, 0, 0, 2}}
	c := &stubNode{mac: netx.MAC{2, 0, 0, 0, 0, 3}}
	n.Attach(a)
	n.Attach(b)
	n.Attach(c)
	return s, n, a, b, c
}

func TestUnicastDelivery(t *testing.T) {
	s, n, a, b, c := setup()
	n.Send(frame(t, a.mac, b.mac))
	s.RunFor(time.Second)
	if len(b.frames) != 1 {
		t.Fatalf("b got %d frames", len(b.frames))
	}
	if len(a.frames) != 0 || len(c.frames) != 0 {
		t.Fatal("unicast leaked to other stations")
	}
}

func TestBroadcastExcludesSender(t *testing.T) {
	s, n, a, b, c := setup()
	n.Send(frame(t, a.mac, netx.Broadcast))
	s.RunFor(time.Second)
	if len(a.frames) != 0 {
		t.Fatal("sender heard its own broadcast")
	}
	if len(b.frames) != 1 || len(c.frames) != 1 {
		t.Fatalf("broadcast fan-out: b=%d c=%d", len(b.frames), len(c.frames))
	}
}

func TestMulticastDelivery(t *testing.T) {
	s, n, a, b, _ := setup()
	group := netx.MulticastMAC(netx.MDNSv4Group)
	n.Send(frame(t, a.mac, group))
	s.RunFor(time.Second)
	// L2 multicast reaches every station; filtering happens at L3.
	if len(b.frames) != 1 {
		t.Fatalf("multicast not delivered: %d", len(b.frames))
	}
}

func TestUnknownUnicastDropped(t *testing.T) {
	s, n, a, _, _ := setup()
	n.Send(frame(t, a.mac, netx.MAC{0xde, 0xad, 0, 0, 0, 1}))
	s.RunFor(time.Second)
	if s.Telemetry.Registry.CounterValue("lan_frames_delivered") != 0 {
		t.Fatal("frame delivered to nonexistent station")
	}
}

func TestTapSeesEverything(t *testing.T) {
	s, n, a, b, _ := setup()
	var tapped int
	var tapTime time.Time
	n.Tap(func(at time.Time, f []byte) { tapped++; tapTime = at })
	n.Send(frame(t, a.mac, b.mac))
	n.Send(frame(t, a.mac, netx.Broadcast))
	if tapped != 2 {
		t.Fatalf("tap saw %d frames, want 2 (capture at send time)", tapped)
	}
	if !tapTime.Equal(s.Now()) {
		t.Fatal("tap timestamp should be the send instant")
	}
}

func TestDetachAndReattach(t *testing.T) {
	s, n, a, b, _ := setup()
	n.Detach(b.mac)
	n.Send(frame(t, a.mac, b.mac))
	s.RunFor(time.Second)
	if len(b.frames) != 0 {
		t.Fatal("detached node received a frame")
	}
	if len(n.order) != 2 {
		t.Fatalf("node count %d", len(n.order))
	}
	n.Attach(b)
	n.Send(frame(t, a.mac, b.mac))
	s.RunFor(time.Second)
	if len(b.frames) != 1 {
		t.Fatal("reattached node missed a frame")
	}
}

func TestReplaceNodeSameMAC(t *testing.T) {
	s, n, a, b, _ := setup()
	b2 := &stubNode{mac: b.mac}
	n.Attach(b2)
	n.Send(frame(t, a.mac, b.mac))
	s.RunFor(time.Second)
	if len(b.frames) != 0 || len(b2.frames) != 1 {
		t.Fatalf("replacement routing: old=%d new=%d", len(b.frames), len(b2.frames))
	}
	if len(n.order) != 3 {
		t.Fatalf("node count %d after replace", len(n.order))
	}
}

func TestGarbageFrameDropped(t *testing.T) {
	s, n, _, _, _ := setup()
	n.Send([]byte{1, 2, 3}) // unframeable
	s.RunFor(time.Second)
	if s.Telemetry.Registry.CounterValue("lan_frames_delivered") != 0 {
		t.Fatal("garbage delivered")
	}
}

func TestDropAccounting(t *testing.T) {
	s, n, a, _, _ := setup()
	n.Send([]byte{1, 2, 3})                                   // undecodable
	n.Send(frame(t, a.mac, netx.MAC{0xde, 0xad, 0, 0, 0, 1})) // unknown unicast
	n.Send(frame(t, a.mac, netx.MAC{0xde, 0xad, 0, 0, 0, 2})) // unknown unicast
	s.RunFor(time.Second)
	reg := s.Telemetry.Registry
	if got := reg.Total("lan_frames_dropped"); got != 3 {
		t.Fatalf("lan_frames_dropped = %d, want 3", got)
	}
	if got := reg.CounterValue("lan_frames_dropped{reason=undecodable}"); got != 1 {
		t.Fatalf("undecodable drops = %d, want 1", got)
	}
	if got := reg.CounterValue("lan_frames_dropped{reason=unknown-unicast}"); got != 2 {
		t.Fatalf("unknown-unicast drops = %d, want 2", got)
	}
}

func TestFrameTypeAccounting(t *testing.T) {
	s, n, a, b, _ := setup()
	n.Send(frame(t, a.mac, b.mac))          // unicast ipv4
	n.Send(frame(t, a.mac, netx.Broadcast)) // multicast ipv4
	s.RunFor(time.Second)
	reg := s.Telemetry.Registry
	if got := reg.CounterValue("lan_frames_total{cast=unicast,ethertype=ipv4}"); got != 1 {
		t.Fatalf("unicast ipv4 frames = %d, want 1", got)
	}
	if got := reg.CounterValue("lan_frames_total{cast=multicast,ethertype=ipv4}"); got != 1 {
		t.Fatalf("multicast ipv4 frames = %d, want 1", got)
	}
	// Deliveries: 1 unicast + 2 broadcast receivers.
	if got := reg.CounterValue("lan_frames_delivered"); got != 3 {
		t.Fatalf("delivered = %d, want 3", got)
	}
}

func TestDeliveryLatency(t *testing.T) {
	s, n, a, b, _ := setup()
	start := s.Now()
	var deliveredAt time.Time
	done := make(chan struct{})
	_ = done
	bWrap := &hookNode{stubNode: b, onFrame: func() { deliveredAt = s.Now() }}
	n.Attach(bWrap) // replaces b
	n.Send(frame(t, a.mac, b.mac))
	s.RunFor(time.Second)
	if got := deliveredAt.Sub(start); got != Latency {
		t.Fatalf("delivery latency %v, want %v", got, Latency)
	}
}

type hookNode struct {
	*stubNode
	onFrame func()
}

func (h *hookNode) HandleFrame(p *layers.Packet) {
	h.onFrame()
	h.stubNode.HandleFrame(p)
}

// Regression: a unicast frame already in flight when its destination
// detaches must count as a "detached" drop, not panic or silently vanish.
func TestDetachWhileUnicastInFlight(t *testing.T) {
	s, n, a, b, _ := setup()
	n.Send(frame(t, a.mac, b.mac))
	n.Detach(b.mac) // before the delivery event fires
	s.RunFor(time.Second)
	if len(b.frames) != 0 {
		t.Fatal("detached node received an in-flight frame")
	}
	if got := s.Telemetry.Registry.CounterValue("lan_frames_dropped{reason=detached}"); got != 1 {
		t.Fatalf("detached drops = %d, want 1", got)
	}
	if got := s.Telemetry.Registry.CounterValue("lan_frames_delivered"); got != 0 {
		t.Fatalf("lan_frames_delivered = %d, want 0", got)
	}
}

// Regression: multicast membership is snapshotted at send time, and each
// receiver is re-checked at delivery — a station that detaches in flight
// counts as a drop, and a station that attaches in flight hears nothing.
// The frame in flight holds the network's station order itself, so a
// station leaving from before the end of it must not shift the others.
func TestDetachWhileMulticastInFlight(t *testing.T) {
	for _, last := range []bool{true, false} {
		s, n, a, b, c := setup()
		stay, gone := b, c
		if !last {
			stay, gone = c, b
		}
		n.Send(frame(t, a.mac, netx.Broadcast))
		n.Detach(gone.mac)
		late := &stubNode{mac: netx.MAC{2, 0, 0, 0, 0, 9}}
		n.Attach(late) // joined after the frame was "in the air"
		s.RunFor(time.Second)
		if len(stay.frames) != 1 {
			t.Fatalf("last=%v: surviving receiver got %d frames, want 1", last, len(stay.frames))
		}
		if len(gone.frames) != 0 || len(late.frames) != 0 {
			t.Fatalf("last=%v: in-flight membership leaked: detached=%d late-attach=%d",
				last, len(gone.frames), len(late.frames))
		}
		reg := s.Telemetry.Registry
		if got := reg.CounterValue("lan_frames_dropped{reason=detached}"); got != 1 {
			t.Fatalf("last=%v: detached drops = %d, want 1", last, got)
		}
		if got := reg.CounterValue("lan_frames_delivered"); got != 1 {
			t.Fatalf("last=%v: lan_frames_delivered = %d, want 1", last, got)
		}
	}
}

// copyNode records when each frame arrives and the destination MAC it
// finds decoded, then zeroes that destination: a mark a later receiver of
// the same decode would find, and a fresh decode overwrites.
type copyNode struct {
	stubNode
	sched *sim.Scheduler
	at    []time.Time
	dst   []netx.MAC
}

func (n *copyNode) HandleFrame(p *layers.Packet) {
	n.at = append(n.at, n.sched.Now())
	n.dst = append(n.dst, p.Eth.Dst)
	p.Eth.Dst = netx.MAC{}
	n.stubNode.HandleFrame(p)
}

// An impaired delivery with duplicates is one event per copy: a unicast
// receiver and each multicast receiver get every copy, DuplicateGap apart,
// each decoded on its own, and a receiver that leaves after the first copy
// counts the others as detached drops.
func TestImpairDuplicatesDeliverEveryCopy(t *testing.T) {
	s := sim.NewScheduler(1)
	n := New(s)
	n.Impair = func(src, dst netx.MAC, multicast bool, frame []byte) Verdict {
		return Verdict{Duplicates: 2, DuplicateGap: time.Millisecond}
	}
	nodes := make([]*copyNode, 4)
	for i := range nodes {
		nodes[i] = &copyNode{stubNode: stubNode{mac: netx.MAC{2, 0, 0, 0, 0, byte(i + 1)}}, sched: s}
		n.Attach(nodes[i])
	}
	sender, uni, stay, leave := nodes[0], nodes[1], nodes[2], nodes[3]
	start := s.Now()
	n.Send(frame(t, sender.mac, uni.mac))
	n.Send(frame(t, sender.mac, netx.Broadcast))
	s.RunFor(Latency) // the first copies only
	n.Detach(leave.mac)
	s.RunFor(time.Second)

	check := func(name string, nd *copyNode, want []time.Duration, dst []netx.MAC) {
		t.Helper()
		if len(nd.at) != len(want) {
			t.Fatalf("%s got %d copies, want %d", name, len(nd.at), len(want))
		}
		for i := range want {
			if got := nd.at[i].Sub(start); got != want[i] || nd.dst[i] != dst[i] {
				t.Fatalf("%s copy %d at %v decoded dst %v, want %v and %v — a copy shares another's decode",
					name, i, got, nd.dst[i], want[i], dst[i])
			}
		}
	}
	ms := time.Millisecond
	bc := netx.Broadcast
	check("unicast receiver", uni,
		[]time.Duration{Latency, Latency, Latency + ms, Latency + ms, Latency + 2*ms, Latency + 2*ms},
		[]netx.MAC{uni.mac, bc, uni.mac, bc, uni.mac, bc})
	check("multicast receiver", stay,
		[]time.Duration{Latency, Latency + ms, Latency + 2*ms}, []netx.MAC{bc, bc, bc})
	check("detached receiver", leave, []time.Duration{Latency}, []netx.MAC{bc})
	if len(sender.at) != 0 {
		t.Fatalf("sender heard %d copies of its own multicast", len(sender.at))
	}
	reg := s.Telemetry.Registry
	if got := reg.CounterValue("lan_frames_dropped{reason=detached}"); got != 2 {
		t.Fatalf("detached drops = %d, want 2", got)
	}
	if got := reg.CounterValue("lan_frames_delivered"); got != 10 {
		t.Fatalf("lan_frames_delivered = %d, want 10", got)
	}
}

// The detached-drop accounting must also hold on the impaired path, where
// each receiver gets its own delivery event.
func TestDetachWhileInFlightWithImpairment(t *testing.T) {
	s, n, a, b, _ := setup()
	n.Impair = func(src, dst netx.MAC, multicast bool, frame []byte) Verdict {
		return Verdict{ExtraDelay: time.Millisecond}
	}
	n.Send(frame(t, a.mac, b.mac))
	n.Send(frame(t, a.mac, netx.Broadcast))
	n.Detach(b.mac)
	s.RunFor(time.Second)
	if len(b.frames) != 0 {
		t.Fatal("detached node received impaired in-flight frames")
	}
	// Both the unicast and b's share of the broadcast count as detached.
	if got := s.Telemetry.Registry.CounterValue("lan_frames_dropped{reason=detached}"); got != 2 {
		t.Fatalf("detached drops = %d, want 2", got)
	}
}

// A station that detaches and re-attaches under the same MAC while a
// multicast frame is in flight gets the frame: the in-flight recipient is
// the MAC's slot, and whichever node holds it at delivery receives.
func TestReattachWhileMulticastInFlight(t *testing.T) {
	s, n, a, b, c := setup()
	sent := frame(t, a.mac, netx.Broadcast)
	n.Send(sent)
	n.Detach(c.mac)
	c2 := &stubNode{mac: c.mac} // the rebooted station
	n.Attach(c2)
	s.RunFor(time.Second)
	if len(b.frames) != 1 || len(c.frames) != 0 || len(c2.frames) != 1 {
		t.Fatalf("deliveries b=%d old c=%d re-attached c=%d, want 1 0 1",
			len(b.frames), len(c.frames), len(c2.frames))
	}
	if &c2.frames[0][0] != &sent[0] {
		t.Fatal("re-attached station got other bytes than were sent")
	}
	reg := s.Telemetry.Registry
	if got := reg.CounterValue("lan_frames_dropped{reason=detached}"); got != 0 {
		t.Fatalf("detached drops = %d, want 0", got)
	}
	if got := reg.CounterValue("lan_frames_delivered"); got != 2 {
		t.Fatalf("lan_frames_delivered = %d, want 2", got)
	}
}

// markNode records what it finds in the packet it is handed — the pointer,
// the decoded source MAC and the destination MAC — and then writes its own
// MAC over the destination: a mark the next receiver of the same decode
// finds, and a fresh decode would overwrite.
type markNode struct {
	stubNode
	got  *layers.Packet
	src  netx.MAC
	mark netx.MAC
}

func (n *markNode) HandleFrame(p *layers.Packet) {
	n.got, n.src, n.mark = p, p.Eth.Src, p.Eth.Dst
	p.Eth.Dst = n.mac
	n.stubNode.HandleFrame(p)
}

// Every receiver of one multicast fan-out is handed the same decoded
// packet, decoded once: a mark one receiver leaves in it is there for the
// next, which a second decode would have overwritten. Impaired deliveries
// each decode their own.
func TestFanoutSharesOneDecode(t *testing.T) {
	for _, impaired := range []bool{false, true} {
		s := sim.NewScheduler(1)
		n := New(s)
		if impaired {
			n.Impair = func(src, dst netx.MAC, multicast bool, frame []byte) Verdict { return Verdict{} }
		}
		nodes := make([]*markNode, 5)
		for i := range nodes {
			nodes[i] = &markNode{stubNode: stubNode{mac: netx.MAC{2, 0, 0, 0, 0, byte(i + 1)}}}
			n.Attach(nodes[i])
		}
		sender, rx := nodes[0], nodes[1:]
		sent := frame(t, sender.mac, netx.Broadcast)
		n.Send(sent)
		s.RunFor(time.Second)
		for i, nd := range rx {
			if len(nd.frames) != 1 || &nd.frames[0][0] != &sent[0] || nd.src != sender.mac {
				t.Fatalf("impaired=%v: receiver %d got %d frames, decoded src %v", impaired, i, len(nd.frames), nd.src)
			}
			if impaired {
				if nd.mark != netx.Broadcast {
					t.Fatalf("impaired receiver %d found mark %v: it shares a decode with another delivery", i, nd.mark)
				}
				continue
			}
			want := netx.Broadcast
			if i > 0 {
				want = rx[i-1].mac
			}
			if nd.got != rx[0].got || nd.mark != want {
				t.Fatalf("receiver %d: same packet %v, mark %v, want %v — the fan-out decoded more than once",
					i, nd.got == rx[0].got, nd.mark, want)
			}
		}
	}
}
