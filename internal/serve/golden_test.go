package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"sort"
	"testing"
	"time"

	"iotlan/internal/inspector"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
)

// servedGolden pins the bytes the service answers for fixed inputs, keyed
// by name: a capture report, the synthetic capture iotload uploads, and the
// fleet table2 and mitigations artifacts after one wire batch. The other
// serve tests compare served output with the offline engine; this file
// compares it with committed values, so a report or artifact cannot move
// unnoticed. Regenerate with -update only for a change that is meant to
// alter output, and name the entries that moved in the change log.
const servedGolden = "testdata/served_golden.json"

var updateGolden = flag.Bool("update", false, "rewrite "+servedGolden)

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// goldenCapture is a synthetic household capture followed by hand-built
// frames that the synthetic layout never holds: an ARP request, a TCP SYN
// between two private hosts, an ICMPv6 neighbor solicitation, a unicast
// EAPOL-Key frame and one UDP datagram from a private host to a public one,
// so the report counts five protocols, several sources and a frame that is
// not local.
func goldenCapture(t *testing.T, h *inspector.Household) []pcap.Record {
	t.Helper()
	records := inspector.SyntheticCapture(h)
	at := records[len(records)-1].Time
	add := func(ls ...layers.Serializable) {
		frame := layers.Serialize(ls...)
		at = at.Add(250 * time.Millisecond)
		records = append(records, pcap.Record{Time: at, Data: frame})
	}
	hub := netx.MAC{0x02, 0xa0, 0, 0, 0, 0x01}
	plug := netx.MAC{0x02, 0xa0, 0, 0, 0, 0x02}
	router := netx.MAC{0x02, 0xa0, 0, 0, 0, 0xfe}
	hubIP := netip.AddrFrom4([4]byte{192, 168, 1, 10})
	plugIP := netip.AddrFrom4([4]byte{192, 168, 1, 11})

	add(&layers.Ethernet{Src: hub, Dst: netx.Broadcast, EtherType: layers.EtherTypeARP},
		&layers.ARP{Op: layers.ARPRequest, SenderHW: hub, SenderIP: hubIP.As4(), TargetIP: plugIP.As4()})

	tcp := &layers.TCP{SrcPort: 49152, DstPort: 80, Seq: 1, Flags: layers.TCPSyn, Window: 65535}
	tcp.SetAddrs(hubIP, plugIP)
	add(&layers.Ethernet{Src: hub, Dst: plug, EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Src: hubIP, Dst: plugIP, Protocol: layers.IPProtoTCP, TTL: 64}, tcp)

	target := netip.MustParseAddr("fe80::a0ff:fe00:1")
	add(&layers.Ethernet{Src: plug, Dst: netx.MAC{0x33, 0x33, 0xff, 0, 0, 0x01}, EtherType: layers.EtherTypeIPv6},
		&layers.IPv6{NextHeader: layers.IPProtoICMPv6, HopLimit: 255,
			Src: netip.MustParseAddr("fe80::a0ff:fe00:2"), Dst: netip.MustParseAddr("ff02::1:ff00:1")},
		&layers.ICMPv6{Type: layers.ICMPv6NeighborSolicit, Target: target, LinkAddr: plug, HasLink: true})

	add(&layers.Ethernet{Src: router, Dst: plug, EtherType: layers.EtherTypeEAPOL},
		&layers.EAPOL{Version: 2, PacketType: 3, Body: []byte{2, 0, 0x8a, 0, 16}})

	udp := &layers.UDP{SrcPort: 51000, DstPort: 123}
	public := netip.AddrFrom4([4]byte{8, 8, 8, 8})
	udp.SetAddrs(plugIP, public)
	add(&layers.Ethernet{Src: plug, Dst: router, EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Src: plugIP, Dst: public, Protocol: layers.IPProtoUDP, TTL: 64},
		udp, layers.RawPayload("ntp"))
	return records
}

// TestServedGolden checks the served bytes against servedGolden.
func TestServedGolden(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ds := inspector.Generate(7, 200)
	h := ds.Households[0]
	got := map[string]string{}

	var synth bytes.Buffer
	if err := pcap.WriteFile(&synth, inspector.SyntheticCapture(h)); err != nil {
		t.Fatal(err)
	}
	got["synthetic_capture.pcap"] = digest(synth.Bytes())

	var upload bytes.Buffer
	if err := pcap.WriteFile(&upload, goldenCapture(t, h)); err != nil {
		t.Fatal(err)
	}
	w := do(s, "POST", "/v1/households/golden/capture", upload.Bytes())
	if w.Code != http.StatusOK {
		t.Fatalf("capture upload: status %d: %s", w.Code, w.Body.String())
	}
	var rep captureReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	// The fixed capture must exercise every count the report holds.
	if len(rep.Protocols) < 5 || rep.Sources < 3 || rep.LocalFrames >= rep.Frames {
		t.Fatalf("capture report does not exercise its counts: %s", w.Body.String())
	}
	got["capture_report"] = digest(w.Body.Bytes())

	if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, ds.Households...)); w.Code != http.StatusOK {
		t.Fatalf("wire batch: status %d: %s", w.Code, w.Body.String())
	}
	for _, name := range []string{"table2", "mitigations"} {
		w := do(s, "GET", "/v1/artifacts/"+name, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, w.Code, w.Body.String())
		}
		got[name] = digest(w.Body.Bytes())
	}

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(servedGolden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(servedGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatalf("%s: %v", servedGolden, err)
	}
	var moved []string
	for k, v := range got {
		if golden[k] != v {
			moved = append(moved, k)
		}
	}
	for k := range golden {
		if _, ok := got[k]; !ok {
			moved = append(moved, k)
		}
	}
	sort.Strings(moved)
	for _, k := range moved {
		t.Errorf("%s: digest %q, golden %q", k, got[k], golden[k])
	}
}
