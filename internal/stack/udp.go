package stack

import (
	"net/netip"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

// Datagram is a received UDP datagram with its addressing context.
type Datagram struct {
	Src     netip.Addr
	SrcPort uint16
	Dst     netip.Addr // the address it was sent to (unicast/multicast/bcast)
	DstPort uint16
	Payload []byte
}

// UDPSock is a bound UDP port.
type UDPSock struct {
	host *Host
	Port uint16
	// OnDatagram handles inbound datagrams; nil sockets still occupy the
	// port (open but silent, as scans observe).
	OnDatagram func(dg Datagram)
}

// OpenUDP binds a UDP port. Binding an in-use port replaces the handler.
func (h *Host) OpenUDP(port uint16, fn func(dg Datagram)) *UDPSock {
	s := &UDPSock{host: h, Port: port, OnDatagram: fn}
	h.udp[port] = s
	return s
}

// CloseUDP releases a bound port.
func (h *Host) CloseUDP(port uint16) { delete(h.udp, port) }

// UDPPortOpen reports whether a port is bound (scan ground truth).
func (h *Host) UDPPortOpen(port uint16) bool { _, ok := h.udp[port]; return ok }

// OpenUDPEphemeral binds an ephemeral client port.
func (h *Host) OpenUDPEphemeral(fn func(dg Datagram)) *UDPSock {
	return h.OpenUDP(h.ephemeralPort(), fn)
}

// Close releases the socket's port.
func (s *UDPSock) Close() { s.host.CloseUDP(s.Port) }

// SendTo emits a datagram from this socket.
func (s *UDPSock) SendTo(dst netip.Addr, dstPort uint16, payload []byte) {
	s.host.SendUDP(s.Port, dst, dstPort, payload)
}

// SendUDP emits a UDP datagram. dst may be unicast, multicast or broadcast;
// IPv6 destinations are sent from the link-local address. The datagram is
// written into its frame before SendUDP returns, so the caller may reuse
// payload at once, even when the frame waits for ARP/NDP resolution.
func (h *Host) SendUDP(srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) {
	v6 := dst.Is6()
	if v6 && !h.Policy.EnableIPv6 {
		return
	}
	frame, seg := ipFrame(v6, layers.UDPHeaderLen+len(payload))
	copy(seg[layers.UDPHeaderLen:], payload)
	u := layers.UDP{SrcPort: srcPort, DstPort: dstPort}
	u.SetAddrs(h.srcIP(v6), dst)
	u.SerializeInto(seg)
	h.sendIP(v6, dst, layers.IPProtoUDP, frame)
}

// JoinGroup subscribes to a multicast group, emitting an IGMPv3 report for
// IPv4 groups (the membership traffic Figure 2 counts).
func (h *Host) JoinGroup(group netip.Addr) {
	if h.joined(group) {
		return
	}
	h.groups = append(h.groups, group)
	if group.Is4() {
		h.sendIGMP(layers.IGMPv3Report, group)
	}
}

// joined reports whether the host has joined group.
func (h *Host) joined(group netip.Addr) bool {
	for _, g := range h.groups {
		if g == group {
			return true
		}
	}
	return false
}

func (h *Host) sendIGMP(typ uint8, group netip.Addr) {
	g := layers.IGMP{Type: typ, Group: group}
	frame, body := ipFrame(false, g.SerializedLen())
	g.SerializeInto(body)
	h.sendIP(false, netx.IGMPGroup, layers.IPProtoIGMP, frame)
}

func (h *Host) handleUDP(p *layers.Packet) {
	sock, ok := h.udp[p.UDP.DstPort]
	if !ok {
		dst := p.DstIP()
		if h.Policy.RespondUDPUnreachable && dst == h.ip4 && p.HasIP4 {
			h.sendICMPUnreachable(p.SrcIP(), 3, p.Data[14:]) // port unreachable
		}
		return
	}
	if sock.OnDatagram != nil {
		sock.OnDatagram(Datagram{
			Src: p.SrcIP(), SrcPort: p.UDP.SrcPort,
			Dst: p.DstIP(), DstPort: p.UDP.DstPort,
			Payload: p.AppPayload,
		})
	}
}
