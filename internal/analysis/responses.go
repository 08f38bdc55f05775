package analysis

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"iotlan/internal/device"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
)

// discoveryWindow is Appendix D.2's response-correlation window.
const discoveryWindow = 3 * time.Second

// discoveryPorts label the discovery protocols of Table 4 (ARP, DHCP and
// ICMP are excluded there because nearly every device uses them).
var discoveryPorts = map[uint16]string{
	5353: "mDNS",
	1900: "SSDP",
	9999: "TPLINK",
	6666: "TuyaLP",
	6667: "TuyaLP",
	5683: "CoAP",
	137:  "NetBIOS",
}

// ResponseRow is one Table 4 row: a device category's discovery behaviour.
type ResponseRow struct {
	Category device.Category
	// AvgDiscovery is the mean number of discovery protocols used.
	AvgDiscovery float64
	// AvgWithResponse is the mean number of those that got ≥1 response.
	AvgWithResponse float64
	// AvgResponders is the mean count of distinct devices that answered.
	AvgResponders float64
	// Devices in the category.
	Devices int
}

// ResponseTable correlates multicast/broadcast discoveries with unicast
// responses arriving within the window (Appendix D.2) and aggregates per
// category (Table 4). Categories are grouped with vendor-specific rows
// (Amazon Echo, Google&Nest, Apple) like the paper's table.
func ResponseTable(records []pcap.Record, devices []*device.Device) []ResponseRow {
	byMAC := map[netx.MAC]*device.Device{}
	byIP := map[netip.Addr]*device.Device{}
	for _, d := range devices {
		byMAC[d.MAC()] = d
		if d.IP().IsValid() {
			byIP[d.IP()] = d
		}
	}

	// Pass 1: discovery transmissions per device: (proto) → times.
	type sent struct {
		at    time.Time
		proto string
	}
	discoveries := map[*device.Device][]sent{}
	var p layers.Packet
	for _, r := range records {
		p.DecodeInto(r.Data)
		if !p.HasUDP || !p.Eth.Dst.IsMulticast() {
			continue
		}
		proto, ok := discoveryPorts[p.UDP.DstPort]
		if !ok {
			continue
		}
		if d, ok := byMAC[p.Eth.Src]; ok {
			discoveries[d] = append(discoveries[d], sent{at: r.Time, proto: proto})
		}
	}

	// Pass 2: unicast responses back to a discoverer within the window.
	protosUsed := map[*device.Device]map[string]bool{}
	protosAnswered := map[*device.Device]map[string]bool{}
	responders := map[*device.Device]map[*device.Device]bool{}
	for d, ss := range discoveries {
		protosUsed[d] = map[string]bool{}
		for _, s := range ss {
			protosUsed[d][s.proto] = true
		}
		protosAnswered[d] = map[string]bool{}
		responders[d] = map[*device.Device]bool{}
	}
	for _, r := range records {
		p.DecodeInto(r.Data)
		if !p.HasUDP || p.Eth.Dst.IsMulticast() {
			continue
		}
		proto, ok := discoveryPorts[p.UDP.SrcPort]
		if !ok {
			continue
		}
		to, okTo := byIP[p.DstIP()]
		from, okFrom := byMAC[p.Eth.Src]
		if !okTo || !okFrom || to == from {
			continue
		}
		for _, s := range discoveries[to] {
			if s.proto == proto && r.Time.After(s.at) && r.Time.Sub(s.at) <= discoveryWindow {
				protosAnswered[to][proto] = true
				responders[to][from] = true
				break
			}
		}
	}

	// Aggregate into the paper's row groups.
	rowOf := func(d *device.Device) device.Category {
		switch {
		case d.Profile.Vendor == "Amazon" && d.Profile.Category == device.VoiceAssistant:
			return "Amazon Echo"
		case d.Profile.Vendor == "Google" && d.Profile.Category == device.VoiceAssistant:
			return "Google&Nest"
		case d.Profile.Vendor == "Apple":
			return "Apple"
		case d.Profile.Vendor == "Tuya" || d.Profile.Platform == device.PlatformTuya:
			return "Tuya"
		case d.Profile.Category == device.MediaTV:
			return "TVs"
		case d.Profile.Category == device.Surveillance:
			return "Cameras"
		case strings.Contains(strings.ToLower(d.Profile.Model), "hub") ||
			strings.Contains(strings.ToLower(d.Profile.Model), "bridge") ||
			strings.Contains(strings.ToLower(d.Profile.Model), "gateway"):
			return "Hubs"
		case d.Profile.Category == device.HomeAutomation:
			return "Home Auto"
		default:
			return "Appliances"
		}
	}
	type acc struct {
		devices, discovery, answered, responders int
	}
	accs := map[device.Category]*acc{}
	for _, d := range devices {
		row := rowOf(d)
		a, ok := accs[row]
		if !ok {
			a = &acc{}
			accs[row] = a
		}
		if protosUsed[d] == nil || len(protosUsed[d]) == 0 {
			continue
		}
		a.devices++
		a.discovery += len(protosUsed[d])
		a.answered += len(protosAnswered[d])
		a.responders += len(responders[d])
	}
	var rows []ResponseRow
	for cat, a := range accs {
		if a.devices == 0 {
			continue
		}
		rows = append(rows, ResponseRow{
			Category:        cat,
			Devices:         a.devices,
			AvgDiscovery:    float64(a.discovery) / float64(a.devices),
			AvgWithResponse: float64(a.answered) / float64(a.devices),
			AvgResponders:   float64(a.responders) / float64(a.devices),
		})
	}
	// Category breaks AvgResponders ties: rows come out of a map, so without
	// a total order the rendition would vary run to run.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].AvgResponders != rows[j].AvgResponders {
			return rows[i].AvgResponders > rows[j].AvgResponders
		}
		return rows[i].Category < rows[j].Category
	})
	return rows
}

// RenderResponseTable prints Table 4.
func RenderResponseTable(rows []ResponseRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %12s %16s %16s\n", "Device Group", "#Discovery", "#ProtoAnswered", "#DevsResponded")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12.2f %16.2f %16.2f\n",
			r.Category, r.AvgDiscovery, r.AvgWithResponse, r.AvgResponders)
	}
	return sb.String()
}
