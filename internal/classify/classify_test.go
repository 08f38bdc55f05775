package classify

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
	"iotlan/internal/rtp"
	"iotlan/internal/ssdp"
	"iotlan/internal/testbed"
	"iotlan/internal/tplink"
)

// mkRecord builds a UDP datagram from 192.168.10.10 in the Ethernet frame a
// real stack would send it in: a multicast group's MAC, the broadcast MAC
// for 255.255.255.255, and a station's unicast MAC otherwise.
func mkRecord(t *testing.T, srcPort, dstPort uint16, dstIP string, payload []byte) pcap.Record {
	t.Helper()
	udp := &layers.UDP{SrcPort: srcPort, DstPort: dstPort}
	src := netip.MustParseAddr("192.168.10.10")
	dst := netip.MustParseAddr(dstIP)
	udp.SetAddrs(src, dst)
	dstMAC := netx.MAC{2, 0, 0, 0, 0, 11}
	switch {
	case dst == netx.Broadcast4:
		dstMAC = netx.Broadcast
	case dst.IsMulticast():
		dstMAC = netx.MulticastMAC(dst)
	}
	frame := layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{2, 0, 0, 0, 0, 10}, Dst: dstMAC, EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoUDP, Src: src, Dst: dst},
		udp, layers.RawPayload(payload))
	return pcap.Record{Time: time.Unix(1668384000, 0), Data: frame}
}

func oneFlow(t *testing.T, rec pcap.Record) *Flow {
	t.Helper()
	flows, _ := Assemble([]pcap.Record{rec})
	if len(flows) != 1 {
		t.Fatalf("assembled %d flows", len(flows))
	}
	return flows[0]
}

func TestAssembleGroupsBy5Tuple(t *testing.T) {
	r1 := mkRecord(t, 40000, 1900, "239.255.255.250", ssdp.MSearch(ssdp.TargetAll, 2))
	r2 := mkRecord(t, 40000, 1900, "239.255.255.250", ssdp.MSearch(ssdp.TargetAll, 2))
	r3 := mkRecord(t, 40001, 1900, "239.255.255.250", ssdp.MSearch(ssdp.TargetAll, 2))
	flows, nonFlow := Assemble([]pcap.Record{r1, r2, r3})
	if len(flows) != 2 {
		t.Fatalf("flows: %d", len(flows))
	}
	if flows[0].Packets != 2 || flows[1].Packets != 1 {
		t.Fatalf("packet counts: %d %d", flows[0].Packets, flows[1].Packets)
	}
	if len(nonFlow) != 0 {
		t.Fatalf("nonFlow: %d", len(nonFlow))
	}
}

// TestAssembleSkipsNonLocal: a unicast datagram to a public address fails
// the Appendix C.1 filter, so Assemble puts it in neither result.
func TestAssembleSkipsNonLocal(t *testing.T) {
	local := mkRecord(t, 40000, 80, "192.168.10.9", []byte("GET / HTTP/1.1\r\n\r\n"))
	cloud := mkRecord(t, 40000, 443, "52.94.0.1", []byte("to the cloud"))
	flows, nonFlow := Assemble([]pcap.Record{cloud, local, cloud})
	if len(flows) != 1 || flows[0].Key.Dst != netip.MustParseAddr("192.168.10.9") || flows[0].Packets != 1 {
		t.Fatalf("flows = %d, want the one local flow", len(flows))
	}
	if len(nonFlow) != 0 {
		t.Fatalf("nonFlow = %d, want 0", len(nonFlow))
	}
}

func TestAssembleSeparatesNonFlow(t *testing.T) {
	arp := layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{2, 0, 0, 0, 0, 1}, Dst: netx.Broadcast, EtherType: layers.EtherTypeARP},
		&layers.ARP{Op: layers.ARPRequest})
	flows, nonFlow := Assemble([]pcap.Record{{Time: time.Now(), Data: arp}})
	if len(flows) != 0 || len(nonFlow) != 1 {
		t.Fatalf("flows=%d nonFlow=%d", len(flows), len(nonFlow))
	}
}

func TestBothClassifiersAgreeOnStandardTraffic(t *testing.T) {
	spec, dpi := SpecClassifier{}, DPIClassifier{}
	cases := []struct {
		name  string
		rec   pcap.Record
		label string
	}{
		{"ssdp", mkRecord(t, 40000, 1900, "239.255.255.250", ssdp.MSearch(ssdp.TargetAll, 2)), "SSDP"},
		{"tplink", mkRecord(t, 40000, 9999, "255.255.255.255", tplink.Obfuscate([]byte(tplink.QuerySysinfo))), "TPLINK-SMARTHOME"},
		{"http", mkRecord(t, 40000, 80, "192.168.10.9", []byte("GET / HTTP/1.1\r\n\r\n")), "HTTP"},
	}
	for _, c := range cases {
		f := oneFlow(t, c.rec)
		if got := spec.Classify(f); got != c.label {
			t.Errorf("%s: spec = %q, want %q", c.name, got, c.label)
		}
		if got := dpi.Classify(f); got != c.label {
			t.Errorf("%s: dpi = %q, want %q", c.name, got, c.label)
		}
	}
}

func TestSpecMislabelsOffPortSSDP(t *testing.T) {
	// An SSDP 200 OK unicast response lands on an ephemeral port: tshark
	// calls it HTTP, nDPI calls it SSDP — the dominant App. C.2 case.
	ad := ssdp.Advertisement{UUID: "u1", Target: ssdp.TargetBasic, Location: "http://192.168.10.9:80/d.xml", Server: "UPnP/1.0"}
	f := oneFlow(t, mkRecord(t, 1900, 40123, "192.168.10.10", ad.Response(ssdp.TargetBasic)))
	if got := (SpecClassifier{}).Classify(f); got == "SSDP" {
		t.Fatalf("spec unexpectedly correct: %q", got)
	}
	if got := (DPIClassifier{}).Classify(f); got != "SSDP" {
		t.Fatalf("dpi = %q, want SSDP", got)
	}
}

func TestDPIMisclassifiesGoogleRTPAsSTUN(t *testing.T) {
	h := &rtp.Header{PayloadType: 10, Seq: 5, SSRC: 99}
	f := oneFlow(t, mkRecord(t, 10002, 10002, "192.168.10.9", h.Marshal(make([]byte, 40))))
	if got := (DPIClassifier{}).Classify(f); got != "STUN" {
		t.Fatalf("dpi = %q, want STUN (the App. C.2 confusion)", got)
	}
	// The corrected classifier fixes it.
	if got := (Final{}).Classify(f); got != "RTP" {
		t.Fatalf("final = %q, want RTP", got)
	}
}

func TestDPICiscoVPNQuirkCorrected(t *testing.T) {
	ad := ssdp.Advertisement{UUID: "u1", Target: ssdp.TargetBasic, Location: "http://192.168.10.9:49152/d.xml", Server: "UPnP/1.0"}
	f := oneFlow(t, mkRecord(t, 1900, 40123, "192.168.10.10", ad.Response(ssdp.TargetBasic)))
	if got := (DPIClassifier{}).Classify(f); got != "CISCOVPN" {
		t.Fatalf("dpi = %q, want CISCOVPN quirk", got)
	}
	if got := (Final{}).Classify(f); got != "SSDP" {
		t.Fatalf("final = %q, want SSDP", got)
	}
}

func TestNintendoEAPOLQuirk(t *testing.T) {
	frame := layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{0x98, 0xb6, 0xe9, 1, 2, 3}, Dst: netx.MAC{2, 0, 0, 0, 0, 1}, EtherType: layers.EtherTypeEAPOL},
		&layers.EAPOL{Version: 2, PacketType: 3})
	p := layers.Decode(frame)
	if got := ClassifyPacketDPI(p); got != "AMAZONAWS" {
		t.Fatalf("dpi packet label = %q, want AMAZONAWS quirk", got)
	}
	if got := ClassifyPacketSpec(p); got != "EAPOL" {
		t.Fatalf("spec packet label = %q, want EAPOL", got)
	}
}

func TestCompareOnLabTraffic(t *testing.T) {
	lab := testbed.New(3)
	lab.Start()
	lab.RunIdle(30 * time.Minute)
	flows, nonFlow := Assemble(lab.Capture.All)
	if len(flows) < 50 {
		t.Fatalf("only %d flows from lab traffic", len(flows))
	}
	c := Compare(flows, nonFlow)
	spec, dpi, disagree, neither := c.Fractions()
	// Appendix C.2 shape: both label ~3/4 of traffic, a mid-teens share
	// disagrees, and a small share is unlabeled by both.
	if spec < 0.5 || dpi < 0.5 {
		t.Errorf("labeled fractions too low: spec=%.2f dpi=%.2f", spec, dpi)
	}
	if disagree <= 0 || disagree > 0.45 {
		t.Errorf("disagreement fraction %.2f out of expected band", disagree)
	}
	if neither < 0 || neither > 0.30 {
		t.Errorf("both-unknown fraction %.2f out of expected band", neither)
	}
	if c.Render() == "" {
		t.Error("empty matrix render")
	}
}

func TestCountLabelsDeterministic(t *testing.T) {
	got := CountLabels([]string{"B", "A", "A", "C", "B", "A"})
	if got[0].Label != "A" || got[0].Count != 3 {
		t.Fatalf("first: %+v", got[0])
	}
	if got[1].Label != "B" || got[2].Label != "C" {
		t.Fatalf("tie/rank order: %+v", got)
	}
}
