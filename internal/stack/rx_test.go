package stack

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

// echoFrame is an ICMP echo request from 192.168.10.99 to h.
func echoFrame(t *testing.T, h *Host, seq uint16) []byte {
	t.Helper()
	frame, err := layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{2, 0, 0, 0, 0, 99}, Dst: h.MAC(), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoICMP, Src: netip.MustParseAddr("192.168.10.99"), Dst: h.IPv4()},
		&layers.ICMPv4{Type: layers.ICMPv4Echo, ID: 7, Seq: seq})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// decoded is frame as a delivery event hands it to its receivers.
func decoded(frame []byte) *lan.Frame {
	f := new(lan.Frame)
	f.DecodeInto(frame)
	return f
}

// A HandleFrame that nests inside a handler on the same host must not
// clobber the Packet the outer handler is still reading: a decode belongs
// to its delivery event, not to the receiving host.
func TestHandleFrameReentrantKeepsOuterPacket(t *testing.T) {
	f := newFixture()
	h := f.host(10)
	h.Policy.RespondEcho = false
	outerBytes := echoFrame(t, h, 1)
	outer, inner := decoded(outerBytes), decoded(echoFrame(t, h, 2))
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

// A datagram multicast to K hosts is parsed once: every receiver that asks
// ParseShared for the same result type gets the first receiver's result.
// A datagram built by hand has no memo and parses on every call.
func TestParseSharedParsesOncePerFrame(t *testing.T) {
	const k = 6
	f := newFixture()
	sender := f.host(9)
	parses := 0
	parse := func(b []byte) (*string, error) {
		parses++
		s := string(b)
		return &s, nil
	}
	var got []*string
	for i := 0; i < k; i++ {
		h := f.host(byte(20 + i))
		h.JoinGroup(netx.SSDPGroup)
		h.OpenUDP(4000, func(dg Datagram) {
			v, err := ParseShared(dg, parse)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
		})
	}
	sender.SendUDP(4000, netx.SSDPGroup, 4000, []byte("query"))
	f.sched.RunFor(time.Second)
	if len(got) != k || parses != 1 {
		t.Fatalf("%d receivers ran %d parses, want %d receivers and 1 parse", len(got), parses, k)
	}
	for i, v := range got {
		if v != got[0] || *v != "query" {
			t.Fatalf("receiver %d got %q at %p, want the shared %p", i, *v, v, got[0])
		}
	}
	dg := Datagram{Payload: []byte("query")}
	a, _ := ParseShared(dg, parse)
	b, _ := ParseShared(dg, parse)
	if parses != 3 || a == b {
		t.Fatalf("hand-built datagram: %d parses after two calls, want 3 with distinct results", parses)
	}
}
