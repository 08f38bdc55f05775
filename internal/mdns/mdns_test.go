package mdns

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

type env struct {
	sched *sim.Scheduler
	net   *lan.Network
}

func newEnv() *env {
	s := sim.NewScheduler(1)
	return &env{sched: s, net: lan.New(s)}
}

func (e *env) host(last byte) *stack.Host {
	h := stack.NewHost(e.net, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
	h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
	return h
}

func hueResponder(h *stack.Host) *Responder {
	r := &Responder{
		Host:     h,
		Hostname: "Philips-hue.local",
		Services: []Service{{
			Instance: "Philips Hue - 685F61",
			Type:     "_hue._tcp.local",
			Port:     443,
			TXT:      []string{"bridgeid=001788fffe685f61", "modelid=BSB002"},
		}},
	}
	r.Start()
	return r
}

// hueQuery is a multicast PTR query for the Hue service from 192.168.10.9.
func hueQuery(tb testing.TB) []byte {
	tb.Helper()
	q := &dnsmsg.Message{Questions: []dnsmsg.Question{
		{Name: "_hue._tcp.local", Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN},
	}}
	src := netip.MustParseAddr("192.168.10.9")
	udp := &layers.UDP{SrcPort: Port, DstPort: Port}
	udp.SetAddrs(src, netx.MDNSv4Group)
	return layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{2, 0, 0, 0, 0, 9}, Dst: netx.MulticastMAC(netx.MDNSv4Group), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoUDP, Src: src, Dst: netx.MDNSv4Group},
		udp,
		layers.RawPayload(q.Marshal()))
}

func TestQueryGetsMulticastResponse(t *testing.T) {
	e := newEnv()
	hue := e.host(23)
	hueResponder(hue)

	phone := e.host(50)
	var responses []*dnsmsg.Message
	Listen(phone, func(m *dnsmsg.Message, from netip.Addr) {
		if m.Response {
			responses = append(responses, m)
		}
	})
	Query(phone, "_hue._tcp.local", false)
	e.sched.RunFor(time.Second)

	if len(responses) != 1 {
		t.Fatalf("responses: %d", len(responses))
	}
	m := responses[0]
	if len(m.Answers) == 0 || m.Answers[0].Type != dnsmsg.TypePTR {
		t.Fatalf("no PTR answer: %+v", m.Answers)
	}
	if m.Answers[0].Target != "Philips Hue - 685F61._hue._tcp.local" {
		t.Fatalf("instance: %q", m.Answers[0].Target)
	}
	// SRV + TXT + A in extra.
	var haveSRV, haveTXT, haveA bool
	for _, rr := range m.Extra {
		switch rr.Type {
		case dnsmsg.TypeSRV:
			haveSRV = rr.Port == 443
		case dnsmsg.TypeTXT:
			haveTXT = len(rr.TXT) == 2 && strings.HasPrefix(rr.TXT[0], "bridgeid=")
		case dnsmsg.TypeA:
			haveA = true
		}
	}
	if !haveSRV || !haveTXT || !haveA {
		t.Fatalf("detail records: srv=%v txt=%v a=%v", haveSRV, haveTXT, haveA)
	}
}

func TestNonMatchingQuerySilent(t *testing.T) {
	e := newEnv()
	hue := e.host(23)
	hueResponder(hue)
	phone := e.host(50)
	n := 0
	Listen(phone, func(m *dnsmsg.Message, from netip.Addr) {
		if m.Response {
			n++
		}
	})
	Query(phone, "_airplay._tcp.local", false)
	e.sched.RunFor(time.Second)
	if n != 0 {
		t.Fatalf("unexpected responses: %d", n)
	}
}

func TestUnicastQUResponse(t *testing.T) {
	e := newEnv()
	hue := e.host(23)
	r := hueResponder(hue)
	r.AnswerUnicast = true

	phone := e.host(50)
	other := e.host(60)
	var phoneGot, otherGot int
	Listen(phone, func(m *dnsmsg.Message, from netip.Addr) {
		if m.Response {
			phoneGot++
		}
	})
	Listen(other, func(m *dnsmsg.Message, from netip.Addr) {
		if m.Response {
			otherGot++
		}
	})
	Query(phone, "_hue._tcp.local", true)
	e.sched.RunFor(time.Second)
	if phoneGot != 1 {
		t.Fatalf("phone responses: %d", phoneGot)
	}
	if otherGot != 0 {
		t.Fatalf("third party saw unicast response: %d", otherGot)
	}
}

func TestServiceEnumeration(t *testing.T) {
	e := newEnv()
	hue := e.host(23)
	hueResponder(hue)
	phone := e.host(50)
	var types []string
	Listen(phone, func(m *dnsmsg.Message, from netip.Addr) {
		for _, a := range m.Answers {
			if m.Response && a.Name == ServiceEnum {
				types = append(types, a.Target)
			}
		}
	})
	Query(phone, ServiceEnum, false)
	e.sched.RunFor(time.Second)
	if len(types) != 1 || types[0] != "_hue._tcp.local" {
		t.Fatalf("enumerated types: %v", types)
	}
}

func TestAnnounceCarriesIdentifiers(t *testing.T) {
	e := newEnv()
	hue := e.host(23)
	r := hueResponder(hue)
	phone := e.host(50)
	var seen []string
	Listen(phone, func(m *dnsmsg.Message, from netip.Addr) {
		for _, rr := range append(m.Answers, m.Extra...) {
			seen = append(seen, rr.Name, rr.Target)
			seen = append(seen, rr.TXT...)
		}
	})
	r.Announce()
	e.sched.RunFor(time.Second)
	joined := strings.Join(seen, " ")
	if !strings.Contains(joined, "685F61") {
		t.Fatalf("announcement lacks MAC-derived identifier: %q", joined)
	}
	if !strings.Contains(joined, "bridgeid=001788fffe685f61") {
		t.Fatalf("announcement lacks bridge id: %q", joined)
	}
}

func TestHostnameAQuery(t *testing.T) {
	e := newEnv()
	hue := e.host(23)
	hueResponder(hue)
	phone := e.host(50)
	var addr netip.Addr
	Listen(phone, func(m *dnsmsg.Message, from netip.Addr) {
		for _, a := range m.Answers {
			if a.Type == dnsmsg.TypeA {
				addr = a.Addr
			}
		}
	})
	m := &dnsmsg.Message{Questions: []dnsmsg.Question{
		{Name: "Philips-hue.local", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN},
	}}
	phone.SendUDP(Port, netx.MDNSv4Group, Port, m.Marshal())
	e.sched.RunFor(time.Second)
	if addr != hue.IPv4() {
		t.Fatalf("A answer %v, want %v", addr, hue.IPv4())
	}
}

// A query multicast to K responders on K hosts is decoded once, and every
// responder reads that one packet. The K answers are byte for byte those of
// K separately decoded deliveries.
func TestQueryParsedOnceAcrossResponders(t *testing.T) {
	const k = 8
	run := func(deliver func(hosts []*stack.Host, query []byte)) [][]byte {
		e := newEnv()
		hosts := make([]*stack.Host, k)
		for i := range hosts {
			hosts[i] = e.host(byte(20 + i))
			r := hueResponder(hosts[i])
			r.Hostname = fmt.Sprintf("hue-%d.local", i)
			r.Services[0].Instance = fmt.Sprintf("Philips Hue - %02X", i)
		}
		e.sched.RunFor(time.Second) // the responders' group joins
		var answers [][]byte
		e.net.Tap(func(_ time.Time, f []byte) { answers = append(answers, f) })
		deliver(hosts, hueQuery(t))
		e.sched.RunFor(time.Second)
		return answers
	}
	shared := run(func(hosts []*stack.Host, query []byte) {
		p := layers.Decode(query) // one delivery event: every receiver gets p
		for _, h := range hosts {
			h.HandleFrame(p)
		}
	})
	separate := run(func(hosts []*stack.Host, query []byte) {
		for _, h := range hosts {
			h.HandleFrame(layers.Decode(query))
		}
	})
	if len(shared) != k || len(separate) != k {
		t.Fatalf("answers: shared %d, separate %d, want %d each", len(shared), len(separate), k)
	}
	for i := range shared {
		if !bytes.Equal(shared[i], separate[i]) {
			t.Fatalf("answer %d differs:\nshared   %x\nseparate %x", i, shared[i], separate[i])
		}
	}
}

// replyLog records the DNS payload of every datagram h sends from the mDNS
// port.
func replyLog(e *env, h *stack.Host) *[][]byte {
	var got [][]byte
	e.net.Tap(func(_ time.Time, f []byte) {
		if p := layers.Decode(f); p.HasUDP && p.UDP.SrcPort == Port && p.Eth.Src == h.MAC() {
			got = append(got, p.AppPayload)
		}
	})
	return &got
}

// ask multicasts query from phone and runs the clock until it is answered.
func (e *env) ask(phone *stack.Host, query []byte) {
	phone.SendUDP(40000, netx.MDNSv4Group, Port, query)
	e.sched.RunFor(time.Second)
}

// A reply memoized before the host's address changes is not served after
// it: the same A/ANY query, answered again after SetIPv4 (a DHCP re-lease
// to a new address), carries the new address.
func TestResponderReplyFollowsAddressChange(t *testing.T) {
	e := newEnv()
	hue := e.host(23)
	r := hueResponder(hue)
	questions := 0
	r.OnQuery = func(dnsmsg.Question, netip.Addr) { questions++ }
	phone := e.host(50)
	var addrs []netip.Addr
	Listen(phone, func(m *dnsmsg.Message, _ netip.Addr) {
		for _, a := range m.Answers {
			if a.Type == dnsmsg.TypeA {
				addrs = append(addrs, a.Addr)
			}
		}
	})
	query := (&dnsmsg.Message{Questions: []dnsmsg.Question{
		{Name: "Philips-hue.local", Type: dnsmsg.TypeANY, Class: dnsmsg.ClassIN},
	}}).Marshal()

	e.ask(phone, query)
	e.ask(phone, query) // answered from the memo
	if len(r.replies) != 1 {
		t.Fatalf("memo holds %d replies after one query asked twice, want 1", len(r.replies))
	}
	old, renewed := hue.IPv4(), netip.MustParseAddr("192.168.10.123")
	hue.SetIPv4(renewed)
	e.ask(phone, query)

	if want := []netip.Addr{old, old, renewed}; !slices.Equal(addrs, want) {
		t.Fatalf("A answers %v, want %v", addrs, want)
	}
	if questions != 3 {
		t.Fatalf("OnQuery fired %d times for 3 one-question queries", questions)
	}
}

// More distinct queries than the memo's bound: the memo never holds more
// than replyMemoMax replies, every reply is byte for byte the one a fresh
// responder gives, and OnQuery fires per question whether the reply came
// from the memo or not.
func TestResponderMemoBounded(t *testing.T) {
	questions := []dnsmsg.Question{
		{Name: "_hue._tcp.local", Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN},
		{Name: "Philips-hue.local", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN},
		{Name: ServiceEnum, Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN},
		{Name: "_airplay._tcp.local", Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN},
	}
	const n = 2*replyMemoMax + 5
	query := func(i int) *dnsmsg.Message {
		m := &dnsmsg.Message{ID: uint16(i), Questions: []dnsmsg.Question{questions[i%len(questions)]}}
		if i%3 == 0 {
			m.Questions = append(m.Questions, questions[(i+1)%len(questions)])
		}
		return m
	}
	// fresh is the reply of a responder that has answered nothing before.
	fresh := func(q []byte) [][]byte {
		e := newEnv()
		hue := e.host(23)
		hueResponder(hue)
		got := replyLog(e, hue)
		e.ask(e.host(50), q)
		return *got
	}

	e := newEnv()
	hue := e.host(23)
	r := hueResponder(hue)
	seen, want := 0, 0
	r.OnQuery = func(dnsmsg.Question, netip.Addr) { seen++ }
	phone := e.host(50)
	got := replyLog(e, hue)
	for i := 0; i < n; i++ {
		m := query(i)
		q := m.Marshal()
		f := fresh(q)
		for _, from := range []string{"a miss", "the memo"} {
			*got = nil
			e.ask(phone, q)
			want += len(m.Questions)
			if len(r.replies) > replyMemoMax {
				t.Fatalf("memo holds %d replies, bound %d", len(r.replies), replyMemoMax)
			}
			if !slices.EqualFunc(*got, f, bytes.Equal) {
				t.Fatalf("query %d answered from %s: %x, fresh responder %x", i, from, *got, f)
			}
		}
	}
	if seen != want {
		t.Fatalf("OnQuery fired %d times for %d questions", seen, want)
	}
}
