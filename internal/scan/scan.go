// Package scan implements the study's active-scan pipeline (§3.1, §4.2): an
// nmap-like scanner running TCP SYN scans over all ports, UDP scans over the
// well-known range, and IP-protocol scans, plus nmap-style service-name
// inference — including its characteristic mistakes (port 8009 labeled
// "ajp13", 6667 "ircu", 9000 "cslistener") and the manual correction table
// of §3.5.
package scan

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/stack"
)

// PortState is the scanner's verdict for one port.
type PortState int

// Port states, nmap vocabulary.
const (
	StateClosed PortState = iota
	StateOpen
	StateFiltered
	StateOpenFiltered // UDP: no response either way
)

// Result is the scan outcome for one target.
type Result struct {
	Target netip.Addr
	// TCPOpen / UDPOpen list open ports ascending.
	TCPOpen []uint16
	UDPOpen []uint16
	// UDPOpenFiltered lists UDP ports that neither answered nor drew an
	// ICMP unreachable while the host was provably sending unreachables —
	// nmap's open|filtered verdict (how the paper's DHCP-68 rows appear).
	UDPOpenFiltered []uint16
	// IPProtos lists IP protocol numbers the host responded to.
	IPProtos []uint8
	// Services maps open port ("tcp"/"udp" prefixed) to the nmap-guessed
	// service name.
	Services map[string]string
	// RespondedTCP/UDP/IP report whether the host reacted to each scan type
	// at all (only 54/20/58 of 93 devices did, §3.1).
	RespondedTCP, RespondedUDP, RespondedIP bool
}

// Scanner drives scans from one attacker/auditor host on the LAN.
type Scanner struct {
	Host *stack.Host
	// TCPPorts is the SYN-scan port list (default 1–65535 via AllTCPPorts).
	TCPPorts []uint16
	// UDPPorts is the UDP-scan list (default 1–1024, §3.1).
	UDPPorts []uint16
	// Protos is the IP-protocol scan list.
	Protos []uint8
}

// AllTCPPorts returns 1–65535.
func AllTCPPorts() []uint16 {
	out := make([]uint16, 65535)
	for i := range out {
		out[i] = uint16(i + 1)
	}
	return out
}

// WellKnownUDPPorts returns 1–1024.
func WellKnownUDPPorts() []uint16 {
	out := make([]uint16, 1024)
	for i := range out {
		out[i] = uint16(i + 1)
	}
	return out
}

// CommonProtos is the IP-protocol scan list (ICMP, IGMP, TCP, UDP, GRE,
// ESP, ICMPv6 carried over v4 for probing).
func CommonProtos() []uint8 { return []uint8{1, 2, 6, 17, 41, 47, 50} }

// Scan runs all three scan types against target and invokes done when the
// sweep completes (simulation time advances via the shared scheduler).
func (s *Scanner) Scan(target netip.Addr, done func(*Result)) {
	res := &Result{Target: target, Services: map[string]string{}}
	tcpPorts := s.TCPPorts
	if tcpPorts == nil {
		tcpPorts = AllTCPPorts()
	}
	udpPorts := s.UDPPorts
	if udpPorts == nil {
		udpPorts = WellKnownUDPPorts()
	}
	protos := s.Protos
	if protos == nil {
		protos = CommonProtos()
	}

	// Prime ARP/NDP with the discovery ping before the port sweep fires: a
	// present target's MAC is cached by the time the thousands of probe
	// frames below go out, so none of them park on the bounded arpWait
	// queue. An absent target sheds the burst at that bound instead — the
	// verdicts don't change (nothing would have answered), the memory does.
	s.Host.Ping(target, 0x5ca0, 1)

	// UDP scan: match ICMP port-unreachables back to probes via the
	// embedded original header; any datagram back from a probed port means
	// open. IP-protocol scan verdicts ride on the same ICMP hook: a
	// protocol-unreachable closes that protocol, any reply at all marks the
	// host as responding.
	udpPending := map[uint16]bool{}
	for _, port := range udpPorts {
		udpPending[port] = true
	}
	protoClosed := map[uint8]bool{}
	icmpSeen := false
	s.Host.SetICMPHook(func(p *layers.Packet) {
		if p.SrcIP() != target {
			return
		}
		icmpSeen = true
		if p.ICMP4.Type != layers.ICMPv4Unreachable {
			return
		}
		switch p.ICMP4.Code {
		case 3: // port unreachable: that UDP port is closed
			if port, ok := embeddedUDPDstPort(p.ICMP4.Data); ok {
				res.RespondedUDP = true
				delete(udpPending, port)
			}
		case 2: // protocol unreachable
			if len(p.ICMP4.Data) >= 10 {
				protoClosed[p.ICMP4.Data[9]] = true
			}
		}
	})
	sock := s.Host.OpenUDPEphemeral(func(dg stack.Datagram) {
		if dg.Src != target {
			return
		}
		res.RespondedUDP = true
		if udpPending[dg.SrcPort] {
			delete(udpPending, dg.SrcPort)
			res.UDPOpen = append(res.UDPOpen, dg.SrcPort)
			res.Services["udp/"+itoa(dg.SrcPort)] = GuessService("udp", dg.SrcPort)
		}
	})
	// The sweep proper waits out the ping's resolution round-trip.
	s.Host.Sched.AfterTagged("scan", 2*time.Millisecond, func() {
		for _, port := range tcpPorts {
			port := port
			s.Host.SynProbe(target, port, func(open bool) {
				res.RespondedTCP = true
				if open {
					res.TCPOpen = append(res.TCPOpen, port)
					res.Services["tcp/"+itoa(port)] = GuessService("tcp", port)
				}
			})
		}
		for _, port := range udpPorts {
			sock.SendTo(target, port, probePayload(port))
		}
		for _, proto := range protos {
			s.Host.SendIPv4Proto(target, proto, []byte{0, 0, 0, 0})
		}
	})

	// Collect after the probes settle. Ten simulated seconds cover probe
	// RTTs plus the SynProbe reaping window.
	s.Host.Sched.After(10*time.Second, func() {
		if icmpSeen || res.RespondedTCP || res.RespondedUDP {
			res.RespondedIP = icmpSeen
			for _, proto := range protos {
				if protoClosed[proto] {
					continue
				}
				// Only protocols the stack genuinely implements count open.
				switch proto {
				case 1, 2, 6, 17:
					res.IPProtos = append(res.IPProtos, proto)
				}
			}
		}
		sort.Slice(res.TCPOpen, func(i, j int) bool { return res.TCPOpen[i] < res.TCPOpen[j] })
		sort.Slice(res.UDPOpen, func(i, j int) bool { return res.UDPOpen[i] < res.UDPOpen[j] })
		if res.RespondedUDP {
			// The host sends unreachables, so silent probed ports are
			// open|filtered (a bound socket that ignored our payload).
			for port := range udpPending {
				res.UDPOpenFiltered = append(res.UDPOpenFiltered, port)
			}
			sort.Slice(res.UDPOpenFiltered, func(i, j int) bool { return res.UDPOpenFiltered[i] < res.UDPOpenFiltered[j] })
		}
		sock.Close()
		s.Host.SetICMPHook(nil)
		done(res)
	})
}

// embeddedUDPDstPort extracts the destination port from the offending IP
// header an ICMP unreachable embeds.
func embeddedUDPDstPort(data []byte) (uint16, bool) {
	if len(data) < 24 || data[0]>>4 != 4 || data[9] != layers.IPProtoUDP {
		return 0, false
	}
	ihl := int(data[0]&0x0f) * 4
	if len(data) < ihl+4 {
		return 0, false
	}
	return uint16(data[ihl+2])<<8 | uint16(data[ihl+3]), true
}

// probePayload picks a protocol-aware probe like nmap's payload database
// (DNS query to 53, SSDP M-SEARCH to 1900, …); others get an empty probe.
func probePayload(port uint16) []byte {
	switch port {
	case 53:
		// A minimal DNS query for "version.bind" TXT.
		return []byte{0x12, 0x34, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0,
			7, 'v', 'e', 'r', 's', 'i', 'o', 'n', 4, 'b', 'i', 'n', 'd', 0, 0, 16, 0, 3}
	case 137:
		return []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 32,
			'C', 'K', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A',
			'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A', 'A',
			0, 0, 0x21, 0, 1}
	default:
		return nil
	}
}

func itoa(p uint16) string { return fmt.Sprintf("%d", p) }
