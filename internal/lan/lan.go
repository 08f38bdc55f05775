// Package lan simulates the home network's layer 2: a Wi-Fi access point /
// switch that delivers Ethernet frames between attached nodes and exposes a
// capture tap, mirroring the MonIoTr testbed AP running tcpdump.
package lan

import (
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/obs"
	"iotlan/internal/sim"
)

// Node is anything attached to the network that can receive frames.
type Node interface {
	// MAC returns the node's hardware address; the switch learns it on
	// Attach (no flooding-based learning is modelled).
	MAC() netx.MAC
	// HandleFrame delivers a frame addressed to (or multicast past) the node.
	// It runs in simulation-event context. The network decodes each delivery
	// event's frame once and hands every receiver of the event the same
	// *layers.Packet: it is read-only, and valid only until HandleFrame
	// returns, after which the network reuses it for a later event. Copy
	// what must be kept. The frame bytes (p.Data) and slices of them are
	// never reused (see the Send ownership contract), so those may be
	// retained.
	HandleFrame(p *layers.Packet)
}

// TapFunc observes every frame on the network, like tcpdump on the AP. The
// frame slice is retained by capture layers, so the Send ownership contract
// applies: it must never be modified after Send.
type TapFunc func(at time.Time, frame []byte)

// Drop reasons for lan_frames_dropped{reason=...}.
const (
	DropUndecodable    = "undecodable"
	DropUnknownUnicast = "unknown-unicast"
	// DropDetached counts in-flight frames whose destination left the
	// network between send and delivery (a device crashing mid-exchange).
	DropDetached = "detached"
	// DropChaosLoss and DropChaosPartition count frames an attached fault
	// injector discarded.
	DropChaosLoss      = "chaos-loss"
	DropChaosPartition = "chaos-partition"
)

// Verdict is a fault injector's decision about one frame delivery (one
// receiver of a unicast or multicast frame).
type Verdict struct {
	// Drop discards the delivery; Reason labels the telemetry drop series.
	Drop   bool
	Reason string
	// ExtraDelay is added to the network's base latency for this delivery.
	// Deliveries delayed past later frames arrive reordered.
	ExtraDelay time.Duration
	// Duplicates schedules this many extra copies, each DuplicateGap after
	// the previous one.
	Duplicates   int
	DuplicateGap time.Duration
}

// ImpairFunc decides the fate of one delivery. It runs in simulation-event
// context at send time, once per receiver; src/dst are the frame's Ethernet
// source and the receiver's MAC.
type ImpairFunc func(src, dst netx.MAC, multicast bool, frame []byte) Verdict

// Network is the simulated switch. Frames submitted with Send are delivered
// after a fixed propagation delay via the shared scheduler, so all traffic
// interleaves deterministically.
type Network struct {
	Sched *sim.Scheduler

	// Latency is the one-way frame propagation delay (default 250µs,
	// a plausible Wi-Fi LAN RTT/2).
	Latency time.Duration

	// Impair, when set, is consulted once per receiver before a delivery is
	// scheduled (the chaos layer's hook). Nil means a perfect network.
	Impair ImpairFunc

	// CheckFrameOwnership enables the debug enforcement of Send's ownership
	// contract: every frame is checksummed at send time and re-verified at
	// delivery; a sender that reused its buffer while the frame was in
	// flight panics with a diagnostic instead of silently corrupting
	// captures. Off by default — it costs one hash pass per frame.
	CheckFrameOwnership bool

	// stations is the station table. A MAC keeps its slot for the network's
	// life, across Detach and re-Attach, so an in-flight delivery names its
	// recipient by slot and reaches whichever node holds the MAC when it
	// fires; a detached slot's node is nil.
	stations []station
	slots    map[netx.MAC]int32
	order    []int32 // attached slots: the deterministic multicast fan-out order
	taps     []TapFunc

	// freeDeliveries / freeFanouts pool the per-delivery structs scheduled
	// on the simulator, so the steady-state send path allocates nothing.
	// The sim is single-threaded; plain slices suffice.
	freeDeliveries []*delivery
	freeFanouts    []*fanout

	cDelivered *obs.Counter
	cDropped   map[string]*obs.Counter
	// byType caches the lan_frames_total{cast,ethertype} handles; the key
	// packs the ethertype class index with the multicast bit.
	byType map[int]*obs.Counter
}

// New creates a network on the given scheduler.
func New(sched *sim.Scheduler) *Network {
	reg := sched.Telemetry.Registry
	return &Network{
		Sched:      sched,
		Latency:    250 * time.Microsecond,
		slots:      make(map[netx.MAC]int32),
		cDelivered: reg.Counter("lan_frames_delivered"),
		cDropped: map[string]*obs.Counter{
			DropUndecodable:    reg.Counter("lan_frames_dropped", "reason", DropUndecodable),
			DropUnknownUnicast: reg.Counter("lan_frames_dropped", "reason", DropUnknownUnicast),
		},
		byType: make(map[int]*obs.Counter),
	}
}

// etherName classifies an EtherType for the frames-by-type series.
func etherName(et uint16) string {
	switch {
	case et == layers.EtherTypeIPv4:
		return "ipv4"
	case et == layers.EtherTypeARP:
		return "arp"
	case et == layers.EtherTypeIPv6:
		return "ipv6"
	case et == layers.EtherTypeEAPOL:
		return "eapol"
	case et <= 1500: // 802.3 length field (LLC/XID)
		return "llc"
	default:
		return "other"
	}
}

// etherClass maps etherName values to small ints for handle caching.
func etherClass(et uint16) int {
	switch {
	case et == layers.EtherTypeIPv4:
		return 0
	case et == layers.EtherTypeARP:
		return 1
	case et == layers.EtherTypeIPv6:
		return 2
	case et == layers.EtherTypeEAPOL:
		return 3
	case et <= 1500:
		return 4
	default:
		return 5
	}
}

func (n *Network) frameCounter(et uint16, multicast bool) *obs.Counter {
	key := etherClass(et) << 1
	cast := "unicast"
	if multicast {
		key |= 1
		cast = "multicast"
	}
	c, ok := n.byType[key]
	if !ok {
		c = n.Sched.Telemetry.Registry.Counter("lan_frames_total",
			"ethertype", etherName(et), "cast", cast)
		n.byType[key] = c
	}
	return c
}

// drop counts a dropped frame; real switches drop silently, the telemetry
// layer does not. Unknown reasons (chaos, detached) get their series created
// on first use.
func (n *Network) drop(reason string) {
	c, ok := n.cDropped[reason]
	if !ok {
		c = n.Sched.Telemetry.Registry.Counter("lan_frames_dropped", "reason", reason)
		n.cDropped[reason] = c
	}
	c.Inc()
	n.Sched.TraceEvent("lan", "drop", "reason", reason)
}

// FramesDropped reports the total dropped frames across all reasons.
func (n *Network) FramesDropped() uint64 {
	var sum uint64
	for _, c := range n.cDropped {
		sum += c.Value()
	}
	return sum
}

// station is one slot of the station table.
type station struct {
	mac  netx.MAC
	node Node // nil while detached
}

// Attach connects a node. Attaching an already-present MAC replaces the node
// (a device rejoining after reboot).
func (n *Network) Attach(node Node) {
	mac := node.MAC()
	slot, ok := n.slots[mac]
	if !ok {
		slot = int32(len(n.stations))
		n.slots[mac] = slot
		n.stations = append(n.stations, station{mac: mac})
	}
	if n.stations[slot].node == nil {
		n.order = append(n.order, slot)
	}
	n.stations[slot].node = node
}

// Detach removes the node with the given MAC (phone leaving the house).
func (n *Network) Detach(mac netx.MAC) {
	slot, ok := n.slots[mac]
	if !ok || n.stations[slot].node == nil {
		return
	}
	n.stations[slot].node = nil
	for i, s := range n.order {
		if s == slot {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
}

// Tap registers a capture callback that sees every frame at send time.
func (n *Network) Tap(fn TapFunc) { n.taps = append(n.taps, fn) }

// NodeCount reports attached nodes.
func (n *Network) NodeCount() int { return len(n.order) }

// delivery is one pooled in-flight unicast (or per-receiver impaired)
// delivery event. It implements sim.Runner so scheduling it allocates no
// closure; Fire returns the struct to the network's pool.
type delivery struct {
	net   *Network
	slot  int32
	frame []byte
	check uint64        // send-time frame checksum; 0 when ownership checks are off
	p     layers.Packet // the receiver's decode, made when the event fires
}

// Fire implements sim.Runner.
func (d *delivery) Fire() {
	n := d.net
	n.verifyOwnership(d.frame, d.check)
	if node := n.receiver(d.slot); node != nil {
		d.p.DecodeInto(d.frame)
		n.cDelivered.Inc()
		node.HandleFrame(&d.p)
	}
	*d = delivery{}
	n.freeDeliveries = append(n.freeDeliveries, d)
}

// fanout is one pooled multicast delivery event: a single scheduler event
// that decodes the frame once and hands it to every send-time recipient,
// keeping the event queue small on busy discovery traffic. The recipients
// slice keeps its capacity across reuses.
type fanout struct {
	net        *Network
	recipients []int32 // station slots
	frame      []byte
	check      uint64
	p          layers.Packet // the one decode every recipient shares
}

// Fire implements sim.Runner.
func (f *fanout) Fire() {
	n := f.net
	n.verifyOwnership(f.frame, f.check)
	f.p.DecodeInto(f.frame)
	var delivered uint64
	for _, slot := range f.recipients {
		if node := n.receiver(slot); node != nil {
			delivered++
			node.HandleFrame(&f.p)
		}
	}
	n.cDelivered.Add(delivered)
	f.recipients = f.recipients[:0]
	// A pooled fanout holds no frame. Assigned on its own, the zero Packet
	// is written in place; in a tuple assignment it is built and copied.
	f.frame, f.check = nil, 0
	f.p = layers.Packet{}
	n.freeFanouts = append(n.freeFanouts, f)
}

// receiver returns the node now holding slot, or nil after counting a
// detached drop when the station left the network while the frame was in
// flight.
func (n *Network) receiver(slot int32) Node {
	node := n.stations[slot].node
	if node == nil {
		n.drop(DropDetached)
	}
	return node
}

func (n *Network) getDelivery(slot int32, frame []byte, check uint64) *delivery {
	if l := len(n.freeDeliveries); l > 0 {
		d := n.freeDeliveries[l-1]
		n.freeDeliveries[l-1] = nil
		n.freeDeliveries = n.freeDeliveries[:l-1]
		d.net, d.slot, d.frame, d.check = n, slot, frame, check
		return d
	}
	return &delivery{net: n, slot: slot, frame: frame, check: check}
}

func (n *Network) getFanout(frame []byte, check uint64) *fanout {
	if l := len(n.freeFanouts); l > 0 {
		f := n.freeFanouts[l-1]
		n.freeFanouts[l-1] = nil
		n.freeFanouts = n.freeFanouts[:l-1]
		f.net, f.frame, f.check = n, frame, check
		return f
	}
	return &fanout{net: n, frame: frame, check: check}
}

// frameSum is FNV-1a over the frame, used by the ownership debug check.
func frameSum(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// verifyOwnership enforces the Send contract when CheckFrameOwnership is on.
func (n *Network) verifyOwnership(frame []byte, want uint64) {
	if want == 0 || !n.CheckFrameOwnership {
		return
	}
	if got := frameSum(frame); got != want {
		panic("lan: frame mutated after Send — the sender reused its buffer while the frame was in flight (Send transfers ownership; see Network.Send)")
	}
}

// Send submits a frame to the switch. The tap observes it immediately
// (capture happens at the AP); receivers get it after Latency.
//
// Ownership contract: Send transfers ownership of the frame slice to the
// network. Capture taps retain it verbatim and in-flight deliveries hand the
// same backing array to receivers, so the caller must not modify the buffer
// after Send — build a fresh frame per send (layers.Serialize does). Buffer
// reuse is a bug; set CheckFrameOwnership in tests to catch it with a panic
// at delivery time.
func (n *Network) Send(frame []byte) {
	var eth layers.Ethernet
	if eth.DecodeFromBytes(frame) != nil {
		n.drop(DropUndecodable) // unframeable garbage, like real L2 — but counted
		return
	}
	multicast := eth.Dst.IsMulticast()
	n.frameCounter(eth.EtherType, multicast).Inc()
	if n.Sched.Tracing() {
		n.Sched.TraceEvent("lan", "frame",
			"ethertype", etherName(eth.EtherType),
			"src", eth.Src.String(), "dst", eth.Dst.String())
	}
	for _, tap := range n.taps {
		tap(n.Sched.Now(), frame)
	}
	var check uint64
	if n.CheckFrameOwnership {
		check = frameSum(frame)
	}
	if multicast { // broadcast has the group bit set too
		// Station membership is snapshotted at send time (the frame is "in
		// the air"); each receiver's slot is read again at delivery so a
		// station that detached in flight counts as a drop, not a delivery.
		src := eth.Src
		if n.Impair == nil {
			// One scheduler event fans out to every receiver: all stations
			// hear a multicast frame at the same instant, and batching keeps
			// the event queue small on busy discovery traffic.
			f := n.getFanout(frame, check)
			for _, slot := range n.order {
				if n.stations[slot].mac != src {
					f.recipients = append(f.recipients, slot)
				}
			}
			n.Sched.AfterRunner("lan", n.Latency, f)
			return
		}
		for _, slot := range n.order {
			if n.stations[slot].mac != src {
				n.scheduleDelivery(src, slot, true, frame, check)
			}
		}
		return
	}
	if slot, ok := n.slots[eth.Dst]; ok && n.stations[slot].node != nil {
		n.scheduleDelivery(eth.Src, slot, false, frame, check)
		return
	}
	// Unknown unicast destinations are dropped: the switch has a complete
	// station table because every node Attaches explicitly.
	n.drop(DropUnknownUnicast)
}

// scheduleDelivery applies the impairment verdict (if any) for one receiver
// and schedules the pooled delivery event(s). Each copy decodes the frame
// when it fires.
func (n *Network) scheduleDelivery(src netx.MAC, slot int32, multicast bool, frame []byte, check uint64) {
	delay := n.Latency
	copies := 1
	gap := time.Duration(0)
	if n.Impair != nil {
		v := n.Impair(src, n.stations[slot].mac, multicast, frame)
		if v.Drop {
			reason := v.Reason
			if reason == "" {
				reason = DropChaosLoss
			}
			n.drop(reason)
			return
		}
		delay += v.ExtraDelay
		copies += v.Duplicates
		gap = v.DuplicateGap
	}
	for i := 0; i < copies; i++ {
		at := delay + time.Duration(i)*gap
		n.Sched.AfterRunner("lan", at, n.getDelivery(slot, frame, check))
	}
}
