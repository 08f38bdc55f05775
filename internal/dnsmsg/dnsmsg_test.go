package dnsmsg

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestQuestionRoundTrip(t *testing.T) {
	m := &Message{
		ID: 0,
		Questions: []Question{
			{Name: "_hue._tcp.local", Type: TypePTR, Class: ClassIN},
			{Name: "_spotify-connect._tcp.local", Type: TypePTR, Class: ClassIN | UnicastQueryBit},
		},
	}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Questions) != 2 {
		t.Fatalf("questions: %d", len(got.Questions))
	}
	if got.Questions[0].Name != "_hue._tcp.local" {
		t.Fatalf("name %q", got.Questions[0].Name)
	}
	if got.Questions[0].WantsUnicast() {
		t.Fatal("QM question flagged QU")
	}
	if !got.Questions[1].WantsUnicast() {
		t.Fatal("QU bit lost")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	m := &Message{
		ID:       0,
		Response: true,
		Answers: []Record{
			{Name: "Philips Hue - 685F61._hue._tcp.local", Type: TypeTXT, Class: ClassIN | CacheFlushBit, TTL: 4500,
				TXT: []string{"bridgeid=001788fffe685f61", "modelid=BSB002"}},
			{Name: "_hue._tcp.local", Type: TypePTR, Class: ClassIN, TTL: 4500,
				Target: "Philips Hue - 685F61._hue._tcp.local"},
			{Name: "hue.local", Type: TypeA, Class: ClassIN, TTL: 120,
				Addr: netip.MustParseAddr("192.168.10.23")},
			{Name: "hue.local", Type: TypeAAAA, Class: ClassIN, TTL: 120,
				Addr: netip.MustParseAddr("fe80::217:88ff:fe68:5f61")},
		},
		Extra: []Record{
			{Name: "Philips Hue - 685F61._hue._tcp.local", Type: TypeSRV, Class: ClassIN, TTL: 120,
				Port: 443, Target: "hue.local"},
		},
	}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response {
		t.Fatal("response bit lost")
	}
	if len(got.Answers) != 4 || len(got.Extra) != 1 {
		t.Fatalf("counts: %d answers %d extra", len(got.Answers), len(got.Extra))
	}
	txt := got.Answers[0]
	if txt.Class&CacheFlushBit == 0 {
		t.Fatal("cache-flush bit lost")
	}
	if len(txt.TXT) != 2 || txt.TXT[0] != "bridgeid=001788fffe685f61" {
		t.Fatalf("TXT: %v", txt.TXT)
	}
	if got.Answers[1].Target != "Philips Hue - 685F61._hue._tcp.local" {
		t.Fatalf("PTR target %q", got.Answers[1].Target)
	}
	if got.Answers[2].Addr != netip.MustParseAddr("192.168.10.23") {
		t.Fatalf("A addr %v", got.Answers[2].Addr)
	}
	if got.Answers[3].Addr != netip.MustParseAddr("fe80::217:88ff:fe68:5f61") {
		t.Fatalf("AAAA addr %v", got.Answers[3].Addr)
	}
	srv := got.Extra[0]
	if srv.Port != 443 || srv.Target != "hue.local" {
		t.Fatalf("SRV: %+v", srv)
	}
}

func TestCompressionPointerDecode(t *testing.T) {
	// Hand-build a response with a compression pointer: question name at
	// offset 12, answer name is a pointer to it.
	var b []byte
	b = append(b, 0, 1, 0x80, 0, 0, 1, 0, 1, 0, 0, 0, 0)
	b = appendName(b, "cast.local")
	b = append(b, 0, TypeA, 0, ClassIN)
	b = append(b, 0xc0, 12) // pointer to offset 12
	b = append(b, 0, TypeA, 0, ClassIN, 0, 0, 0, 60, 0, 4, 192, 168, 10, 9)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 1 || got.Answers[0].Name != "cast.local" {
		t.Fatalf("compressed name: %+v", got.Answers)
	}
	if got.Answers[0].Addr != netip.MustParseAddr("192.168.10.9") {
		t.Fatalf("addr %v", got.Answers[0].Addr)
	}
}

func TestCompressionLoopRejected(t *testing.T) {
	var b []byte
	b = append(b, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	b = append(b, 0xc0, 12) // pointer to itself
	b = append(b, 0, TypeA, 0, ClassIN)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("self-pointer accepted")
	}
}

func TestLongLabelTruncated(t *testing.T) {
	long := strings.Repeat("x", 80)
	m := &Message{Questions: []Question{{Name: long + ".local", Type: TypeA, Class: ClassIN}}}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(got.Questions[0].Name, ".")[0]) != 63 {
		t.Fatalf("label not truncated to 63: %q", got.Questions[0].Name)
	}
}

func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		Unmarshal(data)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalUnmarshalProperty(t *testing.T) {
	// Any printable service name survives a round trip.
	f := func(a, b uint8) bool {
		name := "_svc" + string(rune('a'+a%26)) + "._tcp.local"
		m := &Message{Questions: []Question{{Name: name, Type: uint16(b)%255 + 1, Class: ClassIN}}}
		got, err := Unmarshal(m.Marshal())
		return err == nil && len(got.Questions) == 1 && got.Questions[0].Name == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalMalformedAddressRecord(t *testing.T) {
	// An A record whose RDATA is not 4 bytes parses with a zero Addr; Marshal
	// must re-emit the raw bytes rather than panic on Addr.As4 (found by
	// FuzzDecode, corpus entry 62b4df903ee2673e).
	raw := []byte{
		0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0, // header: 1 answer
		0,          // root name
		0, 1, 0, 1, // TYPE A, CLASS IN
		0, 0, 0, 0, // TTL
		0, 2, 0xde, 0xad, // RDLENGTH 2: malformed A rdata
	}
	m, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Marshal()
	if !bytes.Equal(out, raw) {
		t.Fatalf("malformed A record did not round-trip:\n got %x\nwant %x", out, raw)
	}
	// Same for AAAA with short rdata.
	raw[15] = 28 // TYPE AAAA
	m, err = Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out := m.Marshal(); !bytes.Equal(out, raw) {
		t.Fatalf("malformed AAAA record did not round-trip:\n got %x\nwant %x", out, raw)
	}
}
