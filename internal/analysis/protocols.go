package analysis

import (
	"fmt"
	"sort"
	"strings"

	"iotlan/internal/app"
	"iotlan/internal/classify"
	"iotlan/internal/device"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
	"iotlan/internal/scan"
)

// ProtocolPrevalence is one Figure 2 bar: the share of devices (or apps)
// observed using a protocol, per observation method.
type ProtocolPrevalence struct {
	Protocol string
	// PassivePct is the share of devices seen using the protocol in
	// passive captures (blue bars).
	PassivePct float64
	// ScanPct is the share of devices with a matching open service
	// (orange bars).
	ScanPct float64
	// AppPct is the share of tested apps using the protocol (green bars,
	// N = apps not devices).
	AppPct float64
}

// ProtocolTable builds Figure 2 from the three observation methods.
// passive holds the per-device protocol sets PassiveProtocols found in the
// capture; nDevices, the lab's device count, is the base of the passive
// and scan shares.
func ProtocolTable(passive map[string]map[string]bool, nDevices int,
	scans map[string]*scan.Result, apps []app.App) []ProtocolPrevalence {

	counts := map[string]map[string]bool{} // protocol → device set
	mark := func(proto, devName string) {
		if counts[proto] == nil {
			counts[proto] = map[string]bool{}
		}
		counts[proto][devName] = true
	}
	for dev, protos := range passive {
		for proto := range protos {
			mark(proto, dev)
		}
	}

	scanned := map[string]map[string]bool{}
	markScan := func(proto, devName string) {
		if scanned[proto] == nil {
			scanned[proto] = map[string]bool{}
		}
		scanned[proto][devName] = true
	}
	for devName, res := range scans {
		for _, port := range res.TCPOpen {
			markScan(scanLabel("tcp", port), devName)
		}
		for _, port := range res.UDPOpen {
			markScan(scanLabel("udp", port), devName)
		}
	}

	appStats := app.Summarize(apps)
	appPct := map[string]float64{
		"mDNS":    pct(appStats.MDNS, appStats.Total),
		"SSDP":    pct(appStats.SSDP, appStats.Total),
		"NETBIOS": pct(appStats.NetBIOS, appStats.Total),
		"TLS":     pct(appStats.TLS, appStats.Total),
	}

	names := map[string]bool{}
	for p := range counts {
		names[p] = true
	}
	for p := range scanned {
		names[p] = true
	}
	for p := range appPct {
		names[p] = true
	}
	var out []ProtocolPrevalence
	for p := range names {
		out = append(out, ProtocolPrevalence{
			Protocol:   p,
			PassivePct: pct(len(counts[p]), nDevices),
			ScanPct:    pct(len(scanned[p]), nDevices),
			AppPct:     appPct[p],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PassivePct != out[j].PassivePct {
			return out[i].PassivePct > out[j].PassivePct
		}
		return out[i].Protocol < out[j].Protocol
	})
	return out
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// PassiveProtocols labels every local packet/flow and attributes protocols
// to source devices: device name → the set of protocols it sent. Figure 2's
// passive bars (ProtocolTable) and its per-device counts
// (AvgProtocolsPerDevice) both derive from one such pass.
func PassiveProtocols(records []pcap.Record, devices []*device.Device) map[string]map[string]bool {
	byMAC := map[netx.MAC]string{}
	for _, d := range devices {
		byMAC[d.MAC()] = d.Profile.Name
	}
	out := map[string]map[string]bool{}
	mark := func(dev, proto string) {
		if dev == "" || proto == classify.Unknown {
			return
		}
		if out[dev] == nil {
			out[dev] = map[string]bool{}
		}
		out[dev][proto] = true
	}
	flows, _ := classify.Assemble(records)
	final := classify.Final{}
	labels := map[classify.FlowKey]string{}
	for _, f := range flows {
		labels[f.Key] = canonicalLabel(final.Classify(f))
	}
	// Attribution is per packet, not per flow: broadcast exchanges like
	// DHCP share one 5-tuple across every client, so the flow's SrcMAC
	// would credit only the first device.
	var p layers.Packet
	for _, r := range records {
		p.DecodeInto(r.Data)
		if !p.IsLocal() {
			continue
		}
		proto, sp, dp := p.Transport()
		if proto == "" {
			mark(byMAC[p.Eth.Src], canonicalLabel(p.L3Name()))
			continue
		}
		key := classify.FlowKey{Src: p.SrcIP(), SrcPort: sp, Dst: p.DstIP(), DstPort: dp, Proto: proto}
		mark(byMAC[p.Eth.Src], labels[key])
	}
	return out
}

// canonicalLabel maps classifier labels onto Figure 2's x-axis vocabulary.
func canonicalLabel(l string) string {
	switch l {
	case "MDNS":
		return "mDNS"
	case "TPLINK-SMARTHOME":
		return "TPLINK_SHP"
	case "TUYALP":
		return "TuyaLP"
	case "UDP-DATA":
		return "UNKNOWN"
	}
	return l
}

// scanLabel maps an open port to Figure 2's scan vocabulary via the nmap
// table (uppercased, as the figure prints them).
func scanLabel(proto string, port uint16) string {
	name := scan.GuessService(proto, port)
	switch name {
	case "http", "http-alt":
		return "HTTP"
	case "https", "https-alt":
		return "HTTPS"
	case "domain":
		return "DNS"
	case "zeroconf":
		return "mDNS"
	case "upnp":
		return "SSDP"
	case "telnet":
		return "TELNET"
	case "netbios-ns":
		return "NETBIOS"
	case "ajp13":
		return "AJP"
	case "ptp-general":
		return "PTP"
	case "snmp":
		return "SNMP"
	case "socks5":
		return "SOCKS5"
	case "cslistener":
		return "CSLISTENER"
	case "ezmeeting-2":
		return "EZMEETING-2"
	case "scp-config":
		return "SCP-CONFIG"
	case "weave":
		return "WEAVE"
	case "rmonitor":
		return "RMONITOR"
	case "irc", "ircu":
		return "IRC"
	case "dhcpc", "dhcps":
		return "DHCP"
	case "unknown":
		if proto == "tcp" {
			return "OTHER-TCP"
		}
		return "OTHER-UDP"
	default:
		if proto == "tcp" {
			return "OTHER-TCP"
		}
		return "OTHER-UDP"
	}
}

// RenderProtocolTable prints Figure 2 as rows.
func RenderProtocolTable(rows []ProtocolPrevalence) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %9s %9s %9s\n", "protocol", "passive%", "scan%", "apps%")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %9.1f %9.1f %9.1f\n", r.Protocol, r.PassivePct, r.ScanPct, r.AppPct)
	}
	return sb.String()
}

// AvgProtocolsPerDevice reports the mean protocol count per device
// ("an average IoT device supports 8 different protocols", §4.1) and the
// maximum observed, over the per-device sets PassiveProtocols returns.
func AvgProtocolsPerDevice(per map[string]map[string]bool) (avg float64, max int, maxDev string) {
	total := 0
	for dev, protos := range per {
		total += len(protos)
		if len(protos) > max {
			max = len(protos)
			maxDev = dev
		}
	}
	if len(per) > 0 {
		avg = float64(total) / float64(len(per))
	}
	return avg, max, maxDev
}
