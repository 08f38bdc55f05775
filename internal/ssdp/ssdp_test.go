package ssdp

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

func TestParseMSearch(t *testing.T) {
	m, err := Parse(MSearch(TargetRootDevice, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != "M-SEARCH" || m.ST() != TargetRootDevice {
		t.Fatalf("parsed: %+v", m)
	}
	if m.Header("man") != `"ssdp:discover"` {
		t.Fatalf("MAN header: %q", m.Header("man"))
	}
}

func TestParseNotifyAndResponse(t *testing.T) {
	ad := Advertisement{
		UUID:     "2f402f80-da50-11e1-9b23-001788685f61",
		Target:   TargetBasic,
		Location: "http://192.168.10.23:80/description.xml",
		Server:   "Linux/3.14 UPnP/1.0 IpBridge/1.56.0",
	}
	n, err := Parse(ad.Notify())
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != "NOTIFY" || n.ST() != TargetBasic {
		t.Fatalf("notify: %+v", n)
	}
	if !strings.Contains(n.USN(), ad.UUID) {
		t.Fatalf("USN lacks UUID: %q", n.USN())
	}
	r, err := Parse(ad.Response(TargetRootDevice))
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != "RESPONSE" || r.Location() != ad.Location {
		t.Fatalf("response: %+v", r)
	}
	if r.Header("SERVER") != ad.Server {
		t.Fatalf("SERVER: %q", r.Header("SERVER"))
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "GET / HTTP/1.1\r\n\r\n", "random bytes"} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool { Parse(data); return true }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatches(t *testing.T) {
	ad := Advertisement{UUID: "abc", Target: TargetIGD}
	if !ad.Matches(TargetAll) || !ad.Matches(TargetRootDevice) || !ad.Matches(TargetIGD) {
		t.Fatal("standard targets should match")
	}
	if ad.Matches(TargetDial) {
		t.Fatal("unrelated target matched")
	}
	if !ad.Matches("uuid:abc") {
		t.Fatal("uuid target should match")
	}
}

func TestSearchResponderExchange(t *testing.T) {
	sched := sim.NewScheduler(1)
	network := lan.New(sched)
	mk := func(last byte) *stack.Host {
		h := stack.NewHost(network, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
		h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
		return h
	}
	tv := mk(30)
	r := &Responder{Host: tv, Ads: []Advertisement{{
		UUID:     "roku-uuid-1234",
		Target:   TargetDial,
		Location: "http://192.168.10.30:8060/dial/dd.xml",
		Server:   "Roku/9.0 UPnP/1.0",
	}}}
	r.Start()

	phone := mk(50)
	var got []*Message
	Search(phone, TargetAll, func(m *Message, from netip.Addr) { got = append(got, m) })
	sched.RunFor(time.Second)

	if len(got) != 1 {
		t.Fatalf("responses: %d", len(got))
	}
	if !strings.Contains(got[0].USN(), "roku-uuid-1234") {
		t.Fatalf("USN: %q", got[0].USN())
	}
	if got[0].ST() != TargetDial {
		t.Fatalf("answered ST: %q", got[0].ST())
	}
}

func TestPassiveResponderStaysSilent(t *testing.T) {
	sched := sim.NewScheduler(1)
	network := lan.New(sched)
	tv := stack.NewHost(network, netx.MAC{2, 0, 0, 0, 0, 30}, stack.DefaultPolicy)
	tv.SetIPv4(netip.MustParseAddr("192.168.10.30"))
	searches := 0
	r := &Responder{Host: tv, Passive: true,
		Ads:      []Advertisement{{UUID: "x", Target: TargetBasic}},
		OnSearch: func(st string, from netip.Addr) { searches++ }}
	r.Start()
	phone := stack.NewHost(network, netx.MAC{2, 0, 0, 0, 0, 50}, stack.DefaultPolicy)
	phone.SetIPv4(netip.MustParseAddr("192.168.10.50"))
	n := 0
	Search(phone, TargetAll, func(m *Message, from netip.Addr) { n++ })
	sched.RunFor(time.Second)
	if searches != 1 {
		t.Fatalf("OnSearch fired %d times", searches)
	}
	if n != 0 {
		t.Fatalf("passive responder answered %d times", n)
	}
}

func TestDeviceDescriptionRoundTrip(t *testing.T) {
	d := &Device{
		FriendlyName: "AMC020SC43PJ749D66",
		Manufacturer: "Amcrest",
		ModelName:    "IP2M-841",
		SerialNumber: "9c:8e:cd:0a:33:1b",
		UDN:          "uuid:device_3_0-AMC020SC43PJ749D66",
		DeviceType:   TargetBasic,
		Services:     []DeviceService{{ServiceType: "urn:schemas-upnp-org:service:ConnectionManager:1", ControlURL: "/cm"}},
	}
	doc, err := d.Document()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "9c:8e:cd:0a:33:1b") {
		t.Fatal("serial (MAC) missing from XML")
	}
	got, err := ParseDevice(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.FriendlyName != d.FriendlyName || got.UDN != d.UDN || got.SerialNumber != d.SerialNumber {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Services) != 1 || got.Services[0].ControlURL != "/cm" {
		t.Fatalf("services: %+v", got.Services)
	}
}

// newHost attaches a host at 192.168.10.<last> to network.
func newHost(network *lan.Network, last byte) *stack.Host {
	h := stack.NewHost(network, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
	h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
	return h
}

// searchFrame is an M-SEARCH for target from 192.168.10.50, port 40000, to
// the SSDP group.
func searchFrame(target string) []byte {
	phoneIP := netip.MustParseAddr("192.168.10.50")
	udp := &layers.UDP{SrcPort: 40000, DstPort: Port}
	udp.SetAddrs(phoneIP, netx.SSDPGroup)
	return layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{2, 0, 0, 0, 0, 50}, Dst: netx.MulticastMAC(netx.SSDPGroup), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoUDP, Src: phoneIP, Dst: netx.SSDPGroup},
		udp,
		layers.RawPayload(MSearch(target, 2)))
}

// An M-SEARCH multicast to K responders is decoded once, and every
// responder reads that one packet. The LAN carries byte for byte what K
// separately decoded deliveries make it carry.
func TestMSearchParsedOnceAcrossResponders(t *testing.T) {
	const k = 5
	search := searchFrame(TargetAll)
	run := func(deliver func(hosts []*stack.Host)) [][]byte {
		sched := sim.NewScheduler(1)
		network := lan.New(sched)
		hosts := make([]*stack.Host, k)
		for i := range hosts {
			hosts[i] = newHost(network, byte(30+i))
			(&Responder{Host: hosts[i], Ads: []Advertisement{{
				UUID:   fmt.Sprintf("tv-%d", i),
				Target: TargetDial, Location: fmt.Sprintf("http://192.168.10.%d:8060/dd.xml", 30+i),
			}}}).Start()
		}
		newHost(network, 50) // the searcher, which answers the responders' ARP
		sched.RunFor(time.Second)
		var carried [][]byte
		network.Tap(func(_ time.Time, f []byte) { carried = append(carried, f) })
		deliver(hosts)
		sched.RunFor(time.Second)
		return carried
	}
	shared := run(func(hosts []*stack.Host) {
		p := layers.Decode(search) // one delivery event: every receiver gets p
		for _, h := range hosts {
			h.HandleFrame(p)
		}
	})
	separate := run(func(hosts []*stack.Host) {
		for _, h := range hosts {
			h.HandleFrame(layers.Decode(search))
		}
	})
	answers := 0
	for _, f := range shared {
		if bytes.Contains(f, []byte("HTTP/1.1 200 OK")) {
			answers++
		}
	}
	if answers != k || len(shared) != len(separate) {
		t.Fatalf("shared delivery: %d answers in %d frames; separate: %d frames", answers, len(shared), len(separate))
	}
	for i := range shared {
		if !bytes.Equal(shared[i], separate[i]) {
			t.Fatalf("frame %d differs:\nshared   %x\nseparate %x", i, shared[i], separate[i])
		}
	}
}

// A responder memoizes a search's target, not its answer: after
// Ads[0].Server changes, as a firmware update rewrites it, the same search
// is answered with the new SERVER.
func TestResponderAnswerFollowsAdsChange(t *testing.T) {
	sched := sim.NewScheduler(1)
	network := lan.New(sched)
	r := &Responder{Host: newHost(network, 30), Ads: []Advertisement{{
		UUID:     "roku-uuid-1234",
		Target:   TargetDial,
		Location: "http://192.168.10.30:8060/dial/dd.xml",
		Server:   "Roku/9.0 UPnP/1.0",
	}}}
	r.Start()
	phone := newHost(network, 50)
	var servers []string
	search := func() {
		Search(phone, TargetDial, func(m *Message, _ netip.Addr) { servers = append(servers, m.Header("SERVER")) })
		sched.RunFor(time.Second)
	}
	search()
	r.Ads[0].Server = "Roku/9.1 UPnP/1.1"
	search()
	if want := []string{"Roku/9.0 UPnP/1.0", "Roku/9.1 UPnP/1.1"}; !slices.Equal(servers, want) {
		t.Fatalf("SERVER of the two answers %q, want %q", servers, want)
	}
	if len(r.targets) != 1 {
		t.Fatalf("memo holds %d targets after one search sent twice, want 1", len(r.targets))
	}
}

// More distinct searches than the memo's bound: the memo never holds more
// than searchMemoMax targets, and OnSearch fires once per search with the
// target it names, whether the target came from the memo or not.
func TestResponderSearchMemoBounded(t *testing.T) {
	sched := sim.NewScheduler(1)
	network := lan.New(sched)
	var seen []string
	r := &Responder{Host: newHost(network, 30), Passive: true,
		Ads:      []Advertisement{{UUID: "x", Target: TargetBasic}},
		OnSearch: func(st string, _ netip.Addr) { seen = append(seen, st) }}
	r.Start()
	phone := newHost(network, 50)
	for i := 0; i < 2*searchMemoMax+5; i++ {
		st := fmt.Sprintf("urn:example-org:device:Test:%d", i)
		for _, from := range []string{"a miss", "the memo"} {
			seen = nil
			phone.SendUDP(40000, netx.SSDPGroup, Port, MSearch(st, 2))
			sched.RunFor(time.Second)
			if len(seen) != 1 || seen[0] != st {
				t.Fatalf("search %d from %s: OnSearch saw %q, want [%q]", i, from, seen, st)
			}
			if len(r.targets) > searchMemoMax {
				t.Fatalf("memo holds %d targets, bound %d", len(r.targets), searchMemoMax)
			}
		}
	}
}
