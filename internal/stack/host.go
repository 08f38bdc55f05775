// Package stack implements a minimal userspace TCP/IP stack over the
// simulated LAN: ARP resolution with a cache, IPv4/IPv6 send/receive, UDP
// sockets with multicast groups (IGMP), a small reliable-network TCP
// (handshake, data, FIN, RST), ICMP echo and unreachables, and NDP. Every
// byte a Host emits is a genuine Ethernet frame, so the AP capture contains
// real packets for the classifier and threat analyses to parse.
package stack

import (
	"net/netip"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/obs"
	"iotlan/internal/sim"
)

// Policy captures per-device stack behaviours that the threat analysis
// depends on (which probes a device answers, whether it speaks IPv6, …).
type Policy struct {
	// RespondEcho answers ICMP echo requests.
	RespondEcho bool
	// RespondARPBroadcast answers broadcast ARP who-has for our IP even
	// when the sender is sweeping the address space. When false the host
	// ignores sweep-style broadcast probes (a sender that probed foreign
	// IPs within the last 2 s) but still answers ordinary one-off
	// resolution and all unicast ARP — reproducing §5.1's finding that only
	// 58% of devices answer Echo's broadcast scans while 100% answer
	// unicast probes.
	RespondARPBroadcast bool
	// RespondUDPUnreachable emits ICMP port-unreachable for closed UDP
	// ports; required for UDP scans to mark ports closed.
	RespondUDPUnreachable bool
	// RespondProtoUnreachable emits ICMP protocol-unreachable for unknown
	// IP protocols; required for IP-protocol scans.
	RespondProtoUnreachable bool
	// EnableIPv6 turns on SLAAC link-local addressing and NDP.
	EnableIPv6 bool
	// RespondTCPRst answers SYNs to closed ports with RST (a stealthy
	// device that drops them shows "filtered" to the scanner).
	RespondTCPRst bool
}

// DefaultPolicy answers everything, like a typical busy IoT stack.
var DefaultPolicy = Policy{
	RespondEcho:             true,
	RespondARPBroadcast:     true,
	RespondUDPUnreachable:   true,
	RespondProtoUnreachable: true,
	EnableIPv6:              true,
	RespondTCPRst:           true,
}

// outFrame is an IP frame on its way out: its IP payload is written, the
// IP and Ethernet headers in front of it are not. They are filled in once
// the destination MAC is known, so a frame parked on ARP/NDP resolution
// takes the host's source address when it leaves.
type outFrame struct {
	frame []byte
	v6    bool
	proto uint8
	id    uint16 // IPv4 identification, assigned at send time
}

// arpWaitMax bounds the per-destination queue of frames parked on ARP/NDP
// resolution. A host bursting at a never-resolving target would otherwise
// grow the queue without limit for the full 3 s give-up window; past the cap
// new frames are dropped (tail drop, like a kernel neighbour queue), counted
// under stack_arp_wait_dropped. Callers that legitimately burst thousands of
// frames at one destination (the port scanner) resolve first, so the cap
// only bites truly unresolvable targets.
const arpWaitMax = 128

// Host is one IP endpoint on the simulated LAN.
type Host struct {
	Net   *lan.Network
	Sched *sim.Scheduler

	mac    netx.MAC
	ip4    netip.Addr
	ip6    netip.Addr // link-local, set when Policy.EnableIPv6
	Policy Policy

	arp     map[netip.Addr]netx.MAC
	arpWait map[netip.Addr][]outFrame
	// groups holds the joined multicast groups: a handful (mDNS v4 and v6,
	// SSDP, CoAP), which a slice scans faster than a map hashes.
	groups   []netip.Addr
	udp      map[uint16]*UDPSock
	tcpL     map[uint16]*TCPListener
	tcpConns map[connKey]*TCPConn
	nextPort uint16
	ipID     uint16

	// OnARPRequest is invoked for every ARP request seen (honeypot and
	// analysis hooks); return value does not affect protocol handling.
	OnARPRequest func(sender netip.Addr, target netip.Addr)

	// onICMPIn lets the scanner observe ICMP responses to its probes.
	onICMPIn func(*layers.Packet)

	// foreignARP tracks, per sender, the last broadcast who-has for an IP
	// other than ours — the sweep detector behind RespondARPBroadcast.
	foreignARP map[netx.MAC]time.Time

	// down marks a crashed host: it neither sends nor receives, though its
	// timers keep firing (and no-op), like a powered-off NIC.
	down bool

	// tcp caches the stack-layer telemetry handles (shared series across
	// hosts; see newTCPStats).
	tcp *tcpStats

	// cARPWaitDrop counts frames dropped from a full arpWait queue (shared
	// series across hosts, like the tcp handles).
	cARPWaitDrop *obs.Counter
}

// NewHost attaches a new host with the given MAC to the network. The IP is
// unset until SetIPv4 (static) or a DHCP exchange assigns one.
func NewHost(network *lan.Network, mac netx.MAC, policy Policy) *Host {
	h := &Host{
		Net:      network,
		Sched:    network.Sched,
		mac:      mac,
		Policy:   policy,
		arp:      make(map[netip.Addr]netx.MAC),
		arpWait:  make(map[netip.Addr][]outFrame),
		udp:      make(map[uint16]*UDPSock),
		tcpL:     make(map[uint16]*TCPListener),
		tcpConns: make(map[connKey]*TCPConn),
		nextPort: 32768,
		tcp:      newTCPStats(network.Sched.Telemetry.Registry),

		cARPWaitDrop: network.Sched.Telemetry.Registry.Counter("stack_arp_wait_dropped"),
	}
	if policy.EnableIPv6 {
		h.ip6 = netx.LinkLocalV6(mac)
	}
	network.Attach(h)
	return h
}

// MAC implements lan.Node.
func (h *Host) MAC() netx.MAC { return h.mac }

// IPv4 returns the host's IPv4 address (zero Addr until assigned).
func (h *Host) IPv4() netip.Addr { return h.ip4 }

// IPv6 returns the link-local IPv6 address, or the zero Addr if disabled.
func (h *Host) IPv6() netip.Addr { return h.ip6 }

// SetIPv4 assigns the IPv4 address (static config or DHCP result).
func (h *Host) SetIPv4(addr netip.Addr) { h.ip4 = addr }

// SetDown powers the host's NIC off (true) or back on (false). A down host
// drops every inbound frame and suppresses every send. Going down also loses
// volatile state a reboot would lose: the ARP/neighbor cache, frames queued
// on ARP resolution, and established TCP connections.
func (h *Host) SetDown(v bool) {
	h.down = v
	if v {
		h.arp = make(map[netip.Addr]netx.MAC)
		h.arpWait = make(map[netip.Addr][]outFrame)
		h.foreignARP = nil
		h.tcpConns = make(map[connKey]*TCPConn)
	}
}

// ephemeralPort allocates a client port.
func (h *Host) ephemeralPort() uint16 {
	for {
		h.nextPort++
		if h.nextPort < 32768 {
			h.nextPort = 32768
		}
		if _, used := h.udp[h.nextPort]; !used {
			return h.nextPort
		}
	}
}

// SendRaw emits an arbitrary pre-built frame (EAPOL, LLC/XID, crafted
// probes).
func (h *Host) SendRaw(frame []byte) {
	if h.down {
		return
	}
	h.Net.Send(frame)
}

// HandleFrame implements lan.Node: the host's receive path. p is the
// network's one decode of the frame, shared read-only by every receiver of
// the delivery event, so nothing a handler is handed (the *layers.Packet,
// its layer structs) outlives the call — copy what must be kept. Payload
// slices point into the frame bytes, which the network never reuses.
func (h *Host) HandleFrame(p *layers.Packet) {
	if h.down || p.Err != nil {
		return
	}
	switch {
	case p.HasARP:
		h.handleARP(&p.ARP, &p.Eth)
	case p.HasIP4, p.HasIP6:
		h.handleIP(p)
	}
}

func (h *Host) handleIP(p *layers.Packet) {
	dst := p.DstIP()
	// Accept: our unicast, joined multicast groups, well-known all-nodes,
	// broadcast. Multicast, most of what a host hears and never a broadcast
	// address, is tested before the subnet broadcast is computed.
	switch {
	case dst == h.ip4 || dst == h.ip6:
	case dst.IsMulticast():
		if !h.joined(dst) && dst != netx.AllNodesV4 && dst != netx.AllNodesV6 && !isNDPGroup(dst) {
			return
		}
	case dst == netx.Broadcast4 || (h.ip4.IsValid() && dst == netx.SubnetBroadcast(h.ip4)):
	default:
		return
	}
	switch {
	case p.HasUDP:
		h.handleUDP(p)
	case p.HasTCP:
		h.handleTCP(p)
	case p.HasICMP4:
		h.handleICMP(p)
	case p.HasICMP6:
		h.handleICMPv6(p)
	default:
		if p.HasIP4 && h.Policy.RespondProtoUnreachable && dst == h.ip4 {
			h.sendICMPUnreachable(p.SrcIP(), 2, p.Data[14:]) // protocol unreachable
		}
	}
}

func isNDPGroup(a netip.Addr) bool {
	if !a.Is6() {
		return false
	}
	b := a.As16()
	// Solicited-node multicast ff02::1:ffXX:XXXX.
	return b[0] == 0xff && b[1] == 0x02 && b[11] == 0x01 && b[12] == 0xff
}

// --- ARP -----------------------------------------------------------------

func (h *Host) handleARP(a *layers.ARP, eth *layers.Ethernet) {
	sender := netip.AddrFrom4(a.SenderIP)
	target := netip.AddrFrom4(a.TargetIP)
	if sender.IsValid() && !sender.IsUnspecified() {
		h.arp[sender] = a.SenderHW
		h.flushPending(sender)
	}
	switch a.Op {
	case layers.ARPRequest:
		if h.OnARPRequest != nil {
			h.OnARPRequest(sender, target)
		}
		if !h.ip4.IsValid() || target != h.ip4 {
			if eth.Dst.IsBroadcast() {
				// Remember sweep activity per sender for the silent policy.
				if h.foreignARP == nil {
					h.foreignARP = make(map[netx.MAC]time.Time)
				}
				h.foreignARP[a.SenderHW] = h.Sched.Now()
			}
			return
		}
		if eth.Dst.IsBroadcast() && !h.Policy.RespondARPBroadcast {
			if last, ok := h.foreignARP[a.SenderHW]; ok && h.Sched.Now().Sub(last) < 2*time.Second {
				return // mid-sweep: stay silent; unicast always answered
			}
		}
		h.sendARPReply(a.SenderHW, a.SenderIP)
	}
}

// sendARP emits an ARP packet in an Ethernet frame to dst.
func (h *Host) sendARP(dst netx.MAC, a *layers.ARP) {
	frame := make([]byte, layers.EthernetHeaderLen+a.SerializedLen())
	a.SerializeInto(frame[layers.EthernetHeaderLen:])
	eth := layers.Ethernet{Src: h.mac, Dst: dst, EtherType: layers.EtherTypeARP}
	eth.SerializeInto(frame)
	h.SendRaw(frame)
}

func (h *Host) sendARPReply(dstHW netx.MAC, dstIP [4]byte) {
	h.sendARP(dstHW, &layers.ARP{
		Op:       layers.ARPReply,
		SenderHW: h.mac, SenderIP: h.ip4.As4(),
		TargetHW: dstHW, TargetIP: dstIP,
	})
}

// as4or0 renders an address as 4 bytes, mapping the invalid Addr to 0.0.0.0
// (a host probing before DHCP completes).
func as4or0(a netip.Addr) [4]byte {
	if a.IsValid() && a.Is4() {
		return a.As4()
	}
	return [4]byte{}
}

// ARPProbe broadcasts a who-has for target (Echo-style LAN sweep, §5.1).
func (h *Host) ARPProbe(target netip.Addr) {
	h.sendARP(netx.Broadcast, &layers.ARP{
		Op:       layers.ARPRequest,
		SenderHW: h.mac, SenderIP: as4or0(h.ip4),
		TargetIP: as4or0(target),
	})
}

// ARPProbeUnicast sends a targeted unicast ARP request to a known MAC.
func (h *Host) ARPProbeUnicast(dst netx.MAC, target netip.Addr) {
	h.sendARP(dst, &layers.ARP{
		Op:       layers.ARPRequest,
		SenderHW: h.mac, SenderIP: as4or0(h.ip4),
		TargetHW: dst, TargetIP: as4or0(target),
	})
}

func (h *Host) flushPending(addr netip.Addr) {
	waiters := h.arpWait[addr]
	if len(waiters) == 0 {
		return
	}
	delete(h.arpWait, addr)
	mac := h.arp[addr]
	for _, f := range waiters {
		h.emit(addr, f, mac)
	}
}

// ipFrame allocates a frame for an IP payload of n bytes and returns it
// with the payload's span. The Ethernet and IP headers in front of the
// payload are written by sendIP once the destination MAC is known.
func ipFrame(v6 bool, n int) (frame, payload []byte) {
	off := layers.EthernetHeaderLen + layers.IPv4HeaderLen
	if v6 {
		off = layers.EthernetHeaderLen + layers.IPv6HeaderLen
	}
	frame = make([]byte, off+n)
	return frame, frame[off:]
}

// srcIP is the address the host sends from: the link-local address for
// IPv6, else the IPv4 address.
func (h *Host) srcIP(v6 bool) netip.Addr {
	if v6 {
		return h.ip6
	}
	return h.ip4
}

// sendIP transmits an ipFrame whose payload is written: at once to a
// multicast, broadcast or cached neighbour, otherwise after ARP/NDP
// resolves dst. An IPv4 frame takes its identification now.
func (h *Host) sendIP(v6 bool, dst netip.Addr, proto uint8, frame []byte) {
	f := outFrame{frame: frame, v6: v6, proto: proto}
	if !v6 {
		h.ipID++
		f.id = h.ipID
	}
	// Multicast and broadcast need no resolution.
	if dst.IsMulticast() {
		h.emit(dst, f, netx.MulticastMAC(dst))
		return
	}
	if dst == netx.Broadcast4 || (h.ip4.IsValid() && dst == netx.SubnetBroadcast(h.ip4)) {
		h.emit(dst, f, netx.Broadcast)
		return
	}
	if mac, ok := h.arp[dst]; ok {
		h.emit(dst, f, mac)
		return
	}
	if dst.Is6() {
		h.sendNeighborSolicit(dst)
	} else {
		h.ARPProbe(dst)
	}
	if len(h.arpWait[dst]) >= arpWaitMax {
		h.cARPWaitDrop.Inc()
		return
	}
	h.arpWait[dst] = append(h.arpWait[dst], f)
	// Give up after 3 s so queues don't leak when the target is absent.
	h.Sched.AfterTagged("stack", 3*time.Second, func() { delete(h.arpWait, dst) })
}

// emit writes f's IP and Ethernet headers in place and sends it to mac.
func (h *Host) emit(dst netip.Addr, f outFrame, mac netx.MAC) {
	eth := layers.Ethernet{Src: h.mac, Dst: mac, EtherType: layers.EtherTypeIPv4}
	if f.v6 {
		eth.EtherType = layers.EtherTypeIPv6
		ip := layers.IPv6{NextHeader: f.proto, Src: h.ip6, Dst: dst}
		ip.SerializeInto(f.frame[layers.EthernetHeaderLen:])
	} else {
		ip := layers.IPv4{Protocol: f.proto, Src: h.ip4, Dst: dst, ID: f.id}
		ip.SerializeInto(f.frame[layers.EthernetHeaderLen:])
	}
	eth.SerializeInto(f.frame)
	h.SendRaw(f.frame)
}

// --- ICMP ----------------------------------------------------------------

func (h *Host) handleICMP(p *layers.Packet) {
	if p.ICMP4.Type == layers.ICMPv4Echo && h.Policy.RespondEcho {
		h.sendICMPv4(p.SrcIP(), &layers.ICMPv4{
			Type: layers.ICMPv4EchoReply, ID: p.ICMP4.ID, Seq: p.ICMP4.Seq, Data: p.ICMP4.Data,
		})
	}
	if fn := h.onICMPIn; fn != nil {
		fn(p)
	}
}

// Ping sends an ICMP echo request.
func (h *Host) Ping(dst netip.Addr, id, seq uint16) {
	h.sendICMPv4(dst, &layers.ICMPv4{
		Type: layers.ICMPv4Echo, ID: id, Seq: seq, Data: []byte("abcdefgh"),
	})
}

func (h *Host) sendICMPUnreachable(dst netip.Addr, code uint8, original []byte) {
	// Per RFC 792 the payload carries the offending IP header + 8 bytes, so
	// scanners can match unreachables to probes.
	if len(original) > 28 {
		original = original[:28]
	}
	h.sendICMPv4(dst, &layers.ICMPv4{
		Type: layers.ICMPv4Unreachable, Code: code, Data: original,
	})
}

// --- NDP / ICMPv6 ----------------------------------------------------------

func (h *Host) handleICMPv6(p *layers.Packet) {
	if !h.Policy.EnableIPv6 {
		return
	}
	switch p.ICMP6.Type {
	case layers.ICMPv6NeighborSolicit:
		if p.ICMP6.Target == h.ip6 {
			if p.ICMP6.HasLink {
				h.arp[p.SrcIP()] = p.ICMP6.LinkAddr
				h.flushPending(p.SrcIP())
			}
			h.sendNeighborAdvert(p.SrcIP())
		}
	case layers.ICMPv6NeighborAdvert:
		if p.ICMP6.HasLink {
			h.arp[p.ICMP6.Target] = p.ICMP6.LinkAddr
			h.flushPending(p.ICMP6.Target)
		}
	case layers.ICMPv6EchoRequest:
		if h.Policy.RespondEcho {
			h.sendICMPv6(p.SrcIP(), &layers.ICMPv6{
				Type: layers.ICMPv6EchoReply, Data: p.ICMP6.Data,
			})
		}
	}
}

func (h *Host) sendNeighborSolicit(target netip.Addr) {
	// Solicited-node multicast destination.
	t := target.As16()
	var g [16]byte
	g[0], g[1], g[11], g[12] = 0xff, 0x02, 0x01, 0xff
	g[13], g[14], g[15] = t[13], t[14], t[15]
	h.sendICMPv6(netip.AddrFrom16(g), &layers.ICMPv6{
		Type: layers.ICMPv6NeighborSolicit, Target: target,
		LinkAddr: h.mac, HasLink: true,
	})
}

func (h *Host) sendNeighborAdvert(dst netip.Addr) {
	h.sendICMPv6(dst, &layers.ICMPv6{
		Type: layers.ICMPv6NeighborAdvert, Target: h.ip6,
		LinkAddr: h.mac, HasLink: true,
	})
}

// AnnounceIPv6 sends the unsolicited neighbor advertisement SLAAC hosts emit
// on boot — the MAC-exposure channel of §5.1.
func (h *Host) AnnounceIPv6() {
	if !h.Policy.EnableIPv6 {
		return
	}
	h.sendICMPv6(netx.AllNodesV6, &layers.ICMPv6{
		Type: layers.ICMPv6NeighborAdvert, Target: h.ip6,
		LinkAddr: h.mac, HasLink: true,
	})
}

// --- IP send helpers -------------------------------------------------------

func (h *Host) sendICMPv4(dst netip.Addr, ic *layers.ICMPv4) {
	frame, body := ipFrame(false, ic.SerializedLen())
	ic.SerializeInto(body)
	h.sendIP(false, dst, layers.IPProtoICMP, frame)
}

func (h *Host) sendICMPv6(dst netip.Addr, ic *layers.ICMPv6) {
	frame, body := ipFrame(true, ic.SerializedLen())
	ic.SerializeInto(body)
	h.sendIP(true, dst, layers.IPProtoICMPv6, frame)
}

// SendIPv4Proto emits a bare IPv4 packet with an arbitrary protocol number
// (IP-protocol scans).
func (h *Host) SendIPv4Proto(dst netip.Addr, proto uint8, payload []byte) {
	frame, body := ipFrame(false, len(payload))
	copy(body, payload)
	h.sendIP(false, dst, proto, frame)
}

// SetICMPHook registers an observer for inbound ICMP (scanner probes). The
// Packet is the network's shared decode, read-only and valid only during the
// call.
func (h *Host) SetICMPHook(fn func(*layers.Packet)) { h.onICMPIn = fn }
