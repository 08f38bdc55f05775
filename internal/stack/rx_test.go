package stack

import (
	"net/netip"
	"testing"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

// echoFrame is an ICMP echo request from 192.168.10.99 to h.
func echoFrame(t *testing.T, h *Host, seq uint16) []byte {
	t.Helper()
	return layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{2, 0, 0, 0, 0, 99}, Dst: h.MAC(), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoICMP, Src: netip.MustParseAddr("192.168.10.99"), Dst: h.IPv4()},
		&layers.ICMPv4{Type: layers.ICMPv4Echo, ID: 7, Seq: seq})
}

// A HandleFrame that nests inside a handler on the same host must not
// clobber the Packet the outer handler is still reading: a decode belongs
// to its delivery event, not to the receiving host.
func TestHandleFrameReentrantKeepsOuterPacket(t *testing.T) {
	f := newFixture()
	h := f.host(10)
	h.Policy.RespondEcho = false
	outerBytes := echoFrame(t, h, 1)
	outer, inner := layers.Decode(outerBytes), layers.Decode(echoFrame(t, h, 2))
	var seen []uint16
	h.SetICMPHook(func(p *layers.Packet) {
		seen = append(seen, p.ICMP4.Seq)
		if p.ICMP4.Seq == 1 {
			h.HandleFrame(inner)
			if p.ICMP4.Seq != 1 || &p.Data[0] != &outerBytes[0] {
				t.Fatalf("nested delivery overwrote the outer packet: seq %d", p.ICMP4.Seq)
			}
		}
	})
	h.HandleFrame(outer)
	h.HandleFrame(outer) // handling a frame leaves it unchanged
	if len(seen) != 4 || seen[0] != 1 || seen[1] != 2 || seen[2] != 1 || seen[3] != 2 {
		t.Fatalf("hook saw seqs %v, want [1 2 1 2]", seen)
	}
}
