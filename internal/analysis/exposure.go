package analysis

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/layers"
	"iotlan/internal/matter"
	"iotlan/internal/pcap"
	"iotlan/internal/ssdp"
	"iotlan/internal/tplink"
	"iotlan/internal/tuya"
)

// Table 1's information classes.
const (
	ExpMAC         = "MAC"
	ExpDeviceModel = "Device/Model"
	ExpOSVersion   = "OS Version"
	ExpDisplayName = "Display name"
	ExpUUID        = "UUIDs"
	ExpGWID        = "GWid"
	ExpProdKey     = "Prod. Key"
	ExpOEMID       = "OEM id"
	ExpGeolocation = "Geolocation"
	ExpOutdatedSW  = "Outdated OS/SW"
)

// ExposureFields lists Table 1's columns in order.
var ExposureFields = []string{
	ExpMAC, ExpDeviceModel, ExpOSVersion, ExpDisplayName, ExpUUID,
	ExpGWID, ExpProdKey, ExpOEMID, ExpGeolocation, ExpOutdatedSW,
}

// ExposureRows lists Table 1's protocols in order.
var ExposureRows = []string{"ARP", "DHCP", "mDNS", "SSDP", "TuyaLP", "TPLINK"}

// ExposureMatrix is Table 1: per discovery protocol, which sensitive data
// classes were observed on the wire, with example evidence.
type ExposureMatrix struct {
	// Cells maps (protocol, field) to an evidence sample; presence means
	// exposed.
	Cells map[[2]string]string
}

// Exposed reports whether the (protocol, field) cell is set.
func (m *ExposureMatrix) Exposed(proto, field string) bool {
	_, ok := m.Cells[[2]string{proto, field}]
	return ok
}

// BuildExposure scans a capture for Table 1's exposure matrix.
func BuildExposure(records []pcap.Record) *ExposureMatrix {
	m := &ExposureMatrix{Cells: map[[2]string]string{}}
	set := func(proto, field, evidence string) {
		key := [2]string{proto, field}
		if _, done := m.Cells[key]; !done {
			if len(evidence) > 60 {
				evidence = evidence[:60]
			}
			m.Cells[key] = evidence
		}
	}
	var p layers.Packet
	for _, r := range pcap.FilterLocal(records) {
		p.DecodeInto(r.Data)
		switch {
		case p.HasARP:
			if !m.Exposed("ARP", ExpMAC) {
				set("ARP", ExpMAC, p.ARP.SenderHW.String())
			}
		case p.HasUDP:
			payload := p.AppPayload
			switch {
			case p.UDP.DstPort == 67 || p.UDP.DstPort == 68:
				inspectDHCP(payload, set)
			case p.UDP.SrcPort == 5353 || p.UDP.DstPort == 5353:
				inspectMDNS(payload, set)
			case p.UDP.SrcPort == 1900 || p.UDP.DstPort == 1900 || looksSSDP(payload):
				inspectSSDP(payload, set)
			case p.UDP.DstPort == tuya.PortPlain || p.UDP.DstPort == tuya.PortEncrypted:
				inspectTuya(payload, p.UDP.DstPort == tuya.PortPlain, set)
			case p.UDP.SrcPort == tplink.Port || p.UDP.DstPort == tplink.Port:
				inspectTPLink(payload, set)
			}
		}
	}
	return m
}

// looksSSDP matches SSDP start lines on any port. It runs on every local
// UDP payload no earlier case claims, so it compares bytes without
// converting the payload to a string.
func looksSSDP(p []byte) bool {
	return len(p) > 12 && (bytes.HasPrefix(p, []byte("HTTP/1.1 200")) ||
		bytes.HasPrefix(p, []byte("M-SEARCH")) || bytes.HasPrefix(p, []byte("NOTIFY")))
}

func inspectDHCP(payload []byte, set func(proto, field, ev string)) {
	if len(payload) < 240 {
		return
	}
	// Walk options for hostname (12) and vendor class (60).
	opts := payload[240:]
	for len(opts) >= 2 && opts[0] != 255 {
		if opts[0] == 0 {
			opts = opts[1:]
			continue
		}
		n := int(opts[1])
		if len(opts) < 2+n {
			return
		}
		val := string(opts[2 : 2+n])
		switch opts[0] {
		case 12:
			set("DHCP", ExpDeviceModel, val)
			if looksLikeDisplayName(val) {
				set("DHCP", ExpDisplayName, val)
			}
			for _, mac := range findMACs(val) {
				set("DHCP", ExpMAC, mac)
			}
		case 60:
			set("DHCP", ExpOSVersion, val)
			if isOutdatedClient(val) {
				set("DHCP", ExpOutdatedSW, val)
			}
		}
		opts = opts[2+n:]
	}
}

func inspectMDNS(payload []byte, set func(proto, field, ev string)) {
	msg, err := dnsmsg.Unmarshal(payload)
	if err != nil {
		return
	}
	for _, rr := range append(msg.Answers, msg.Extra...) {
		fields := append([]string{rr.Name, rr.Target}, rr.TXT...)
		// Matter commissionable instances are bare MACs (§7's criticism of
		// the new standard); check the instance label of _matterc records.
		for _, name := range []string{rr.Name, rr.Target} {
			if label, _, ok := strings.Cut(name, "._matterc"); ok {
				if mac, isMAC := matter.ExposesMAC(label); isMAC {
					set("mDNS", ExpMAC, "matter:"+mac.String())
				}
			}
		}
		for _, f := range fields {
			for _, mac := range findMACs(f) {
				set("mDNS", ExpMAC, mac)
			}
			if looksLikeDisplayName(f) {
				set("mDNS", ExpDisplayName, f)
			}
			if strings.Contains(f, "model=") || strings.Contains(f, "md=") {
				set("mDNS", ExpDeviceModel, f)
			}
			for _, u := range findUUIDs(f) {
				set("mDNS", ExpUUID, u)
			}
		}
	}
}

func inspectSSDP(payload []byte, set func(proto, field, ev string)) {
	msg, err := ssdp.Parse(payload)
	if err != nil {
		return
	}
	if usn := msg.USN(); usn != "" {
		for _, u := range findUUIDs(usn) {
			set("SSDP", ExpUUID, u)
		}
	}
	if server := msg.Header("SERVER"); server != "" {
		set("SSDP", ExpOSVersion, server)
		if strings.Contains(server, "UPnP/1.0") {
			set("SSDP", ExpOutdatedSW, server)
		}
	}
}

func inspectTuya(payload []byte, plaintext bool, set func(proto, field, ev string)) {
	_, body, err := tuya.Unframe(payload)
	if err != nil {
		return
	}
	if !plaintext {
		if body, err = tuya.Decrypt(body); err != nil {
			return
		}
	}
	b, err := tuya.ParseBeacon(body)
	if err != nil {
		return
	}
	if plaintext {
		// Only the 3.1 plaintext beacons count as exposure (§5.1: Jinvoo).
		if b.GWID != "" {
			set("TuyaLP", ExpGWID, b.GWID)
		}
		if b.ProductKey != "" {
			set("TuyaLP", ExpProdKey, b.ProductKey)
		}
	}
}

func inspectTPLink(payload []byte, set func(proto, field, ev string)) {
	info, err := tplink.ParseSysinfoResponse(tplink.Deobfuscate(payload))
	if err != nil {
		return
	}
	if info.MAC != "" {
		set("TPLINK", ExpMAC, info.MAC)
	}
	if info.Model != "" {
		set("TPLINK", ExpDeviceModel, info.Model)
	}
	if info.Alias != "" {
		set("TPLINK", ExpDisplayName, info.Alias)
	}
	if info.OEMID != "" {
		set("TPLINK", ExpOEMID, info.OEMID)
	}
	if info.Latitude != 0 || info.Longitude != 0 {
		set("TPLINK", ExpGeolocation, fmt.Sprintf("%.6f,%.6f", info.Latitude, info.Longitude))
	}
	if info.SWVersion != "" {
		set("TPLINK", ExpOSVersion, info.SWVersion)
	}
}

func looksLikeDisplayName(s string) bool {
	return strings.Contains(s, "'s ") || strings.Contains(s, "-s-") ||
		strings.Contains(s, "Jane") || strings.Contains(s, "Room")
}

func isOutdatedClient(v string) bool {
	for _, old := range []string{"dhcpcd-5.", "dhcpcd-6.", "udhcp 1.19", "udhcp 1.12"} {
		if strings.Contains(v, old) {
			return true
		}
	}
	return false
}

// findMACs locates colon-form MAC substrings.
func findMACs(s string) []string {
	var out []string
	for i := 0; i+17 <= len(s); i++ {
		if isColonMAC(s[i : i+17]) {
			out = append(out, s[i:i+17])
			i += 16
		}
	}
	return out
}

func isColonMAC(s string) bool {
	for i := 0; i < 17; i++ {
		if (i+1)%3 == 0 {
			if s[i] != ':' && s[i] != '-' {
				return false
			}
		} else if !isHexByte(s[i]) {
			return false
		}
	}
	return true
}

func isHexByte(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

// findUUIDs locates RFC 4122-shaped UUID substrings (8-4-4-4-12 hex).
func findUUIDs(s string) []string {
	var out []string
	lens := []int{8, 4, 4, 4, 12}
	for i := 0; i+36 <= len(s); i++ {
		ok := true
		pos := i
		for seg, l := range lens {
			for j := 0; j < l; j++ {
				if !isHexByte(s[pos]) {
					ok = false
					break
				}
				pos++
			}
			if !ok {
				break
			}
			if seg < len(lens)-1 {
				if s[pos] != '-' {
					ok = false
					break
				}
				pos++
			}
		}
		if ok {
			out = append(out, s[i:i+36])
			i += 35
		}
	}
	return out
}

// RenderExposure prints Table 1.
func RenderExposure(m *ExposureMatrix) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s", "")
	for _, f := range ExposureFields {
		fmt.Fprintf(&sb, "%-15s", f)
	}
	sb.WriteByte('\n')
	for _, proto := range ExposureRows {
		fmt.Fprintf(&sb, "%-8s", proto)
		for _, f := range ExposureFields {
			cell := " "
			if m.Exposed(proto, f) {
				cell = "●"
			}
			fmt.Fprintf(&sb, "%-15s", cell)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ExposureEvidence lists the matrix's evidence rows sorted for reports.
func ExposureEvidence(m *ExposureMatrix) []string {
	var out []string
	for key, ev := range m.Cells {
		out = append(out, fmt.Sprintf("%s → %s: %s", key[0], key[1], ev))
	}
	sort.Strings(out)
	return out
}
