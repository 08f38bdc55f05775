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

// Latency is the one-way frame propagation delay, a plausible Wi-Fi LAN
// RTT/2.
const Latency = 250 * time.Microsecond

// Network is the simulated switch. Frames submitted with Send are delivered
// after Latency via the shared scheduler, so all traffic interleaves
// deterministically.
type Network struct {
	Sched *sim.Scheduler

	// Impair, when set, is consulted once per receiver before a delivery is
	// scheduled (the chaos layer's hook). Nil means a perfect network.
	Impair ImpairFunc

	// stations is the station table. A MAC keeps its slot for the network's
	// life, across Detach and re-Attach, so an in-flight delivery names its
	// recipient by slot and reaches whichever node holds the MAC when it
	// fires; a detached slot's node is nil.
	stations []station
	slots    map[netx.MAC]int32
	// ids holds each slot's own index, ids[i] == i, so that ids[i:i+1] is a
	// one-station recipient list as read-only as an order.
	ids []int32
	// order is the attached slots in multicast fan-out order. A multicast in
	// flight holds the order of its send time, so order is never written in
	// place: Detach builds a new one, and Attach only appends past the end
	// of every earlier order.
	order []int32
	taps  []TapFunc

	// free pools the delivery events scheduled on the simulator, so the
	// steady-state send path allocates nothing. The sim is single-threaded;
	// a plain slice suffices.
	free []*delivery

	cDelivered *obs.Counter
	cDropped   map[string]*obs.Counter
	// byType caches the lan_frames_total{cast,ethertype} handles, indexed by
	// the ethertype class and the multicast bit (frameCounter).
	byType [2 * len(etherNames)]*obs.Counter
}

// New creates a network on the given scheduler.
func New(sched *sim.Scheduler) *Network {
	reg := sched.Telemetry.Registry
	return &Network{
		Sched:      sched,
		slots:      make(map[netx.MAC]int32),
		cDelivered: reg.Counter("lan_frames_delivered"),
		cDropped: map[string]*obs.Counter{
			DropUndecodable:    reg.Counter("lan_frames_dropped", "reason", DropUndecodable),
			DropUnknownUnicast: reg.Counter("lan_frames_dropped", "reason", DropUnknownUnicast),
		},
	}
}

// etherNames names the ethertype classes of the frames-by-type series,
// indexed by etherClass.
var etherNames = [...]string{"ipv4", "arp", "ipv6", "eapol", "llc", "other"}

// etherClass classifies an EtherType for the frames-by-type series.
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
	case et <= 1500: // 802.3 length field (LLC/XID)
		return 4
	default:
		return 5
	}
}

func (n *Network) frameCounter(class int, multicast bool) *obs.Counter {
	key := class << 1
	cast := "unicast"
	if multicast {
		key |= 1
		cast = "multicast"
	}
	c := n.byType[key]
	if c == nil {
		c = n.Sched.Telemetry.Registry.Counter("lan_frames_total",
			"ethertype", etherNames[class], "cast", cast)
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
		n.ids = append(n.ids, slot)
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
	order := make([]int32, 0, len(n.order)-1)
	for _, s := range n.order {
		if s != slot {
			order = append(order, s)
		}
	}
	n.order = order
}

// Tap registers a capture callback that sees every frame at send time.
func (n *Network) Tap(fn TapFunc) { n.taps = append(n.taps, fn) }

// delivery is one pooled in-flight delivery event: a single scheduler event
// that decodes its frame once and hands the decode to each recipient. An
// unimpaired multicast is one event whose recipients are the order of its
// send time, shared read-only: all stations hear it at the same instant, and
// one event keeps the queue small on busy discovery traffic. A unicast, and
// each copy of an impaired delivery, is one event with one recipient. It
// implements sim.Runner so scheduling it allocates no closure; Fire returns
// the struct to the network's pool.
type delivery struct {
	net   *Network
	to    []int32 // recipient station slots: an order, or one slot of ids
	frame []byte
	p     layers.Packet // the one decode every recipient shares
}

// Fire implements sim.Runner. Each recipient's slot is read again at
// delivery, so a station that detached in flight counts as a drop, not a
// delivery, and whichever node holds the MAC now receives.
func (d *delivery) Fire() {
	n := d.net
	d.p.DecodeInto(d.frame)
	// No station hears its own multicast. Send's Ethernet decode of these
	// bytes succeeded, so this one did too; it is read before any receiver
	// runs.
	src, multicast := d.p.Eth.Src, d.p.Eth.Dst.IsMulticast()
	var delivered uint64
	for _, slot := range d.to {
		st := &n.stations[slot]
		if multicast && st.mac == src {
			continue
		}
		if st.node == nil {
			n.drop(DropDetached)
			continue
		}
		delivered++
		st.node.HandleFrame(&d.p)
	}
	n.cDelivered.Add(delivered)
	*d = delivery{} // a pooled delivery holds no frame and no order
	n.free = append(n.free, d)
}

// newDelivery takes a delivery event for frame from the pool.
func (n *Network) newDelivery(frame []byte) *delivery {
	if l := len(n.free); l > 0 {
		d := n.free[l-1]
		n.free[l-1] = nil
		n.free = n.free[:l-1]
		d.net, d.frame = n, frame
		return d
	}
	return &delivery{net: n, frame: frame}
}

// Send submits a frame to the switch. The tap observes it immediately
// (capture happens at the AP); receivers get it after Latency.
//
// Ownership contract: Send transfers ownership of the frame slice to the
// network. Capture taps retain it verbatim and in-flight deliveries hand the
// same backing array to receivers, so the caller must not modify the buffer
// after Send — build a fresh frame per send (layers.Serialize does). Buffer
// reuse is a bug.
func (n *Network) Send(frame []byte) {
	var eth layers.Ethernet
	if eth.DecodeFromBytes(frame) != nil {
		n.drop(DropUndecodable) // unframeable garbage, like real L2 — but counted
		return
	}
	multicast := eth.Dst.IsMulticast()
	class := etherClass(eth.EtherType)
	n.frameCounter(class, multicast).Inc()
	if n.Sched.Tracing() {
		n.Sched.TraceEvent("lan", "frame",
			"ethertype", etherNames[class],
			"src", eth.Src.String(), "dst", eth.Dst.String())
	}
	for _, tap := range n.taps {
		tap(n.Sched.Now(), frame)
	}
	if multicast { // broadcast has the group bit set too
		// Station membership is snapshotted at send time (the frame is "in
		// the air").
		if n.Impair == nil {
			d := n.newDelivery(frame)
			d.to = n.order
			n.Sched.AfterRunner("lan", Latency, d)
			return
		}
		for _, slot := range n.order {
			if n.stations[slot].mac != eth.Src {
				n.scheduleDelivery(eth.Src, slot, true, frame)
			}
		}
		return
	}
	if slot, ok := n.slots[eth.Dst]; ok && n.stations[slot].node != nil {
		n.scheduleDelivery(eth.Src, slot, false, frame)
		return
	}
	// Unknown unicast destinations are dropped: the switch has a complete
	// station table because every node Attaches explicitly.
	n.drop(DropUnknownUnicast)
}

// scheduleDelivery applies the impairment verdict (if any) for one receiver
// and schedules one delivery event per copy. Each copy decodes the frame
// when it fires.
func (n *Network) scheduleDelivery(src netx.MAC, slot int32, multicast bool, frame []byte) {
	delay := Latency
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
		d := n.newDelivery(frame)
		d.to = n.ids[slot : slot+1]
		n.Sched.AfterRunner("lan", delay+time.Duration(i)*gap, d)
	}
}
