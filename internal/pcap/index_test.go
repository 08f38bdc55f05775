package pcap

import (
	"reflect"
	"testing"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

// testFrame builds a minimal broadcast Ethernet frame from src: an ARP
// request, or an unknown-EtherType frame (L3Name "UNKNOWN-L2").
func testFrame(t *testing.T, src netx.MAC, arp bool) []byte {
	t.Helper()
	eth := layers.Ethernet{Src: src, Dst: netx.Broadcast, EtherType: 0x88b5}
	var payload layers.Serializable = layers.RawPayload("xx")
	if arp {
		eth.EtherType = layers.EtherTypeARP
		payload = &layers.ARP{Op: layers.ARPRequest, SenderHW: src}
	}
	return layers.Serialize(&eth, payload)
}

func testRecords(t *testing.T) []Record {
	t.Helper()
	macA := netx.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB := netx.MAC{0x02, 0, 0, 0, 0, 0x0b}
	base := time.Unix(1000, 0).UTC()
	var recs []Record
	for i := 0; i < 20; i++ {
		src := macA
		if i%3 == 0 {
			src = macB
		}
		recs = append(recs, Record{Time: base.Add(time.Duration(i) * time.Second), Data: testFrame(t, src, i%2 == 0)})
	}
	return recs
}

// TestIndexViewsDeterministicAcrossWorkers: the index's one view, the
// caller's records themselves, is the same at any worker count.
func TestIndexViewsDeterministicAcrossWorkers(t *testing.T) {
	recs := testRecords(t)
	a := NewIndex(recs, 1)
	b := NewIndex(testRecords(t), 8)
	if a.Len() != b.Len() {
		t.Fatalf("index lengths differ: %d vs %d", a.Len(), b.Len())
	}
	if &a.Records[0] != &recs[0] {
		t.Fatal("index copied the records")
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if !ra.Time.Equal(rb.Time) || !reflect.DeepEqual(ra.Decode(), rb.Decode()) {
			t.Fatalf("record %d differs between 1 and 8 workers", i)
		}
	}
}

// TestIndexProtocolViews: a reader that groups the indexed records by
// protocol label gets exactly the ARP frames under "ARP", and the labels
// cover every record.
func TestIndexProtocolViews(t *testing.T) {
	ix := NewIndex(testRecords(t), 2)
	byProto := map[string]int{}
	for _, r := range ix.Records {
		p := r.Decode()
		byProto[p.L3Name()]++
		if p.HasARP != (p.L3Name() == "ARP") {
			t.Fatal("ARP label disagrees with the parsed layers")
		}
	}
	if byProto["ARP"] != 10 || byProto["UNKNOWN-L2"] != 10 {
		t.Fatalf("protocol counts %v, want 10 ARP and 10 UNKNOWN-L2", byProto)
	}
}
