package mdns

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

// onDatagramOracle is the receive path before the header peek and the reply
// memo: decode the whole message, drop responses, build the reply afresh.
// It is the reference the peeking, memoizing onDatagram must match.
func (r *Responder) onDatagramOracle(dg stack.Datagram) {
	m, err := dnsmsg.Unmarshal(dg.Payload)
	if err != nil || m.Response {
		return
	}
	r.observe(m, dg.Src)
	r.send(r.reply(m), dg)
}

// responderRun is what one responder emitted and observed for one payload.
type responderRun struct {
	frames  [][]byte
	queries []dnsmsg.Question
}

// runResponder wraps payload in a real UDP/IPv4/Ethernet frame to port 5353,
// feeds it through a live Responder's full receive path (host dispatch,
// group filtering, query handling, response generation) and records every
// frame the LAN carries afterwards plus every OnQuery observation. With
// oracle set, the socket runs onDatagramOracle instead of onDatagram.
func runResponder(payload []byte, oracle bool) responderRun {
	var run responderRun
	sched := sim.NewScheduler(1)
	network := lan.New(sched)
	network.Tap(func(_ time.Time, frame []byte) { run.frames = append(run.frames, frame) })
	host := stack.NewHost(network, netx.MAC{2, 0, 0, 0, 0, 1}, stack.DefaultPolicy)
	host.SetIPv4(netip.MustParseAddr("192.168.10.5"))
	r := &Responder{
		Host:          host,
		Hostname:      "fuzz-target.local",
		Services:      []Service{{Instance: "Fuzz", Type: "_hue._tcp.local", Port: 80, TXT: []string{"md=fuzz"}}},
		AnswerUnicast: true,
		OnQuery: func(q dnsmsg.Question, _ netip.Addr) {
			run.queries = append(run.queries, q)
		},
	}
	r.Start()
	if oracle {
		host.OpenUDP(Port, r.onDatagramOracle)
	}

	src := netip.MustParseAddr("192.168.10.9")
	udp := &layers.UDP{SrcPort: 5353, DstPort: Port}
	udp.SetAddrs(src, netx.MDNSv4Group)
	frame := layers.Serialize(
		&layers.Ethernet{
			Src:       netx.MAC{2, 0, 0, 0, 0, 9},
			Dst:       netx.MulticastMAC(netx.MDNSv4Group),
			EtherType: layers.EtherTypeIPv4,
		},
		&layers.IPv4{Protocol: layers.IPProtoUDP, Src: src, Dst: netx.MDNSv4Group},
		udp,
		layers.RawPayload(payload))
	run.frames = nil // drop the boot-time IGMP joins
	host.HandleFrame(layers.Decode(frame))
	sched.RunFor(time.Second) // flush any scheduled response work
	return run
}

// FuzzDecode is a conformance harness, not a bare parser check: nothing on
// the responder's receive path may panic or hang, whatever the payload. It
// is also differential: the header peek must agree with the decoded
// Response bit, and the peeking responder must emit exactly the frames, and
// observe exactly the questions, that onDatagramOracle does.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 5, '_', 'h', 'u', 'e', 0, 0, 12, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := dnsmsg.Unmarshal(data); err == nil && dnsmsg.IsQuery(data) == m.Response {
			t.Fatalf("header peek IsQuery = %v, decoded Response = %v", dnsmsg.IsQuery(data), m.Response)
		}
		got := runResponder(data, false)
		want := runResponder(data, true)
		if len(got.frames) != len(want.frames) {
			t.Fatalf("responder emitted %d frames, oracle %d", len(got.frames), len(want.frames))
		}
		for i := range got.frames {
			if !bytes.Equal(got.frames[i], want.frames[i]) {
				t.Fatalf("frame %d differs:\n got %x\nwant %x", i, got.frames[i], want.frames[i])
			}
		}
		if !reflect.DeepEqual(got.queries, want.queries) {
			t.Fatalf("OnQuery saw %+v, oracle %+v", got.queries, want.queries)
		}
	})
}
