package inspector

import (
	"crypto/sha256"
	"encoding/binary"
	"net/netip"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
)

// SyntheticCapture renders a household's discovery payloads as a small
// Ethernet/IPv4/UDP capture: one mDNS response frame per mDNS payload and
// one SSDP response frame per SSDP payload, addressed to the protocols'
// multicast groups. iotload and the serve tests use it to drive the
// streaming pcap upload path with content that exercises the same decoders
// as a testbed capture.
//
// The capture is a pure function of the household's contents — device MACs
// and IPs are derived from the device ID hash — so a household decoded from
// the wire format produces the same bytes as the generated original.
func SyntheticCapture(h *Household) []pcap.Record {
	base := time.Date(2019, 4, 12, 0, 0, 0, 0, time.UTC)
	var records []pcap.Record
	add := func(at time.Time, src netx.MAC, srcIP netip.Addr, dstMAC netx.MAC, dstIP netip.Addr, port uint16, payload string) {
		udp := &layers.UDP{SrcPort: port, DstPort: port}
		udp.SetAddrs(srcIP, dstIP)
		frame := layers.Serialize(
			&layers.Ethernet{Src: src, Dst: dstMAC, EtherType: layers.EtherTypeIPv4},
			&layers.IPv4{Src: srcIP, Dst: dstIP, Protocol: layers.IPProtoUDP, TTL: 255},
			udp,
			layers.RawPayload(payload),
		)
		records = append(records, pcap.Record{Time: at, Data: frame})
	}
	mdnsMAC := netx.MAC{0x01, 0x00, 0x5e, 0x00, 0x00, 0xfb}
	ssdpMAC := netx.MAC{0x01, 0x00, 0x5e, 0x7f, 0xff, 0xfa}
	mdnsIP := netip.AddrFrom4([4]byte{224, 0, 0, 251})
	ssdpIP := netip.AddrFrom4([4]byte{239, 255, 255, 250})
	for i, d := range h.Devices {
		sum := sha256.Sum256([]byte("cap:" + h.ID + ":" + d.ID))
		var mac netx.MAC
		copy(mac[:], sum[:6])
		mac[0] = (mac[0] | 0x02) &^ 0x01 // locally administered unicast
		host := binary.BigEndian.Uint16(sum[6:8])%250 + 2
		srcIP := netip.AddrFrom4([4]byte{192, 168, 1, byte(host)})
		at := base.Add(time.Duration(i) * time.Second)
		for j, p := range d.MDNS {
			add(at.Add(time.Duration(j)*100*time.Millisecond), mac, srcIP, mdnsMAC, mdnsIP, 5353, p)
		}
		for j, p := range d.SSDP {
			add(at.Add(500*time.Millisecond+time.Duration(j)*100*time.Millisecond), mac, srcIP, ssdpMAC, ssdpIP, 1900, p)
		}
	}
	return records
}
