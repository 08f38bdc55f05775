package classify

import (
	"bytes"
	"testing"
	"time"

	"iotlan/internal/pcap"
	"iotlan/internal/testbed"
)

// TestPcapFileRoundTripClassification exercises the full dogfood loop: a
// simulated capture is serialised to the libpcap format, re-read, and the
// re-read records classify identically — the iotlab → iotclassify pipeline.
func TestPcapFileRoundTripClassification(t *testing.T) {
	lab := testbed.New(5)
	lab.Start()
	lab.RunIdle(10 * time.Minute)
	local := pcap.FilterLocal(lab.Capture.All)

	var buf bytes.Buffer
	if err := pcap.WriteFile(&buf, local); err != nil {
		t.Fatal(err)
	}
	reread, err := pcap.ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(reread) != len(local) {
		t.Fatalf("re-read %d records, wrote %d", len(reread), len(local))
	}

	labelDist := func(records []pcap.Record) map[string]int {
		flows, nonFlow := Assemble(records)
		final := Final{}
		out := map[string]int{}
		for _, f := range flows {
			out[final.Classify(f)]++
		}
		for _, r := range nonFlow {
			out[final.ClassifyPacket(r.Decode())]++
		}
		return out
	}
	orig, again := labelDist(local), labelDist(reread)
	if len(orig) != len(again) {
		t.Fatalf("label sets differ: %v vs %v", orig, again)
	}
	for label, n := range orig {
		if again[label] != n {
			t.Errorf("label %s: %d vs %d after round trip", label, n, again[label])
		}
	}
	// The idle lab must yield a meaningful protocol mix.
	for _, want := range []string{"MDNS", "SSDP", "DHCP", "ARP"} {
		if orig[want] == 0 {
			t.Errorf("idle capture lacks %s", want)
		}
	}
}

// TestClassifierLabelStability pins the corrected classifier's flow-label
// vocabulary: new labels appearing here should be deliberate.
func TestClassifierLabelStability(t *testing.T) {
	lab := testbed.New(5)
	lab.Start()
	lab.RunIdle(15 * time.Minute)
	flows, _ := Assemble(pcap.FilterLocal(lab.Capture.All))
	final := Final{}
	known := map[string]bool{
		"MDNS": true, "SSDP": true, "DHCP": true, "TPLINK-SMARTHOME": true,
		"TUYALP": true, "COAP": true, "LIFX": true, "HTTP": true, "TLS": true,
		"RTP": true, "DNS": true, "NETBIOS": true, "TELNET": true,
		"STUN": true, "RTCP": true, Unknown: true,
	}
	for _, f := range flows {
		if label := final.Classify(f); !known[label] {
			t.Errorf("unexpected label %q for %v", label, f.Key)
		}
	}
}
