// Package ssdp implements the Simple Service Discovery Protocol underpinning
// UPnP: M-SEARCH active discovery, NOTIFY passive presence broadcasting,
// unicast 200 OK responses, and the UPnP device-description XML that exposes
// friendly names, UUIDs and serial numbers (§5.1, Table 5).
package ssdp

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"iotlan/internal/netx"
	"iotlan/internal/stack"
)

// Port is the SSDP UDP port.
const Port = 1900

// Well-known search targets.
const (
	TargetAll         = "ssdp:all"
	TargetRootDevice  = "upnp:rootdevice"
	TargetIGD         = "urn:schemas-upnp-org:device:InternetGatewayDevice:1"
	TargetMediaRender = "urn:schemas-upnp-org:device:MediaRenderer:1"
	TargetDial        = "urn:dial-multiscreen-org:service:dial:1"
	TargetBasic       = "urn:schemas-upnp-org:device:Basic:1"
)

// Message is a parsed SSDP datagram.
type Message struct {
	// Kind is "M-SEARCH", "NOTIFY" or "RESPONSE".
	Kind    string
	Headers map[string]string
}

// Header returns a header value, case-insensitively.
func (m *Message) Header(k string) string { return m.Headers[strings.ToUpper(k)] }

// ST returns the search target (M-SEARCH/response) or NT (NOTIFY).
func (m *Message) ST() string {
	if st := m.Header("ST"); st != "" {
		return st
	}
	return m.Header("NT")
}

// USN returns the unique service name (the UUID exposure channel).
func (m *Message) USN() string { return m.Header("USN") }

// Location returns the device-description URL.
func (m *Message) Location() string { return m.Header("LOCATION") }

// kindOf returns the datagram's kind — "M-SEARCH", "NOTIFY" or "RESPONSE" —
// from its start line alone, or "" when the datagram has no '\n'-terminated
// start line or an unrecognised one. It allocates nothing, so a receiver can
// dispatch on it before paying for Parse; Parse classifies by the same rule.
func kindOf(data []byte) string {
	first, _, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return ""
	}
	return startKind(bytes.TrimSpace(first))
}

// startKind classifies a trimmed start line.
func startKind(first []byte) string {
	switch {
	case bytes.HasPrefix(first, []byte("M-SEARCH")):
		return "M-SEARCH"
	case bytes.HasPrefix(first, []byte("NOTIFY")):
		return "NOTIFY"
	case bytes.HasPrefix(first, []byte("HTTP/1.1 200")):
		return "RESPONSE"
	}
	return ""
}

// Parse decodes an SSDP datagram. Headers run from the start line to the
// first blank line; a final line without '\n' is ignored, as is a line with
// no colon. It walks data in place, copying each header line once.
func Parse(data []byte) (*Message, error) {
	first, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("ssdp: no start line: %w", io.EOF)
	}
	first = bytes.TrimSpace(first)
	kind := startKind(first)
	if kind == "" {
		return nil, fmt.Errorf("ssdp: unrecognised start line %q", first)
	}
	m := &Message{Kind: kind, Headers: make(map[string]string)}
	for {
		var line []byte
		if line, rest, ok = bytes.Cut(rest, []byte{'\n'}); !ok {
			break
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			break
		}
		if bytes.IndexByte(line, ':') < 0 {
			continue
		}
		// One copy per header line; key and value are substrings of it.
		k, v, _ := strings.Cut(string(line), ":")
		m.Headers[strings.ToUpper(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return m, nil
}

// The builders below write each datagram's headers in sorted key order,
// one "KEY: value" line each, and end the header block with a blank line.

// header appends one header line.
func header(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, ": "...)
	b = append(b, v...)
	return append(b, "\r\n"...)
}

// usn appends the USN line, "uuid:<uuid>::<target>", and the blank line
// that ends the headers; USN sorts last in every datagram here.
func usn(b []byte, uuid, target string) []byte {
	b = append(b, "USN: uuid:"...)
	b = append(b, uuid...)
	b = append(b, "::"...)
	b = append(b, target...)
	return append(b, "\r\n\r\n"...)
}

// MSearch builds an M-SEARCH datagram for the given target.
func MSearch(target string, mx int) []byte {
	b := make([]byte, 0, 96+len(target))
	b = append(b, "M-SEARCH * HTTP/1.1\r\n"...)
	b = header(b, "HOST", "239.255.255.250:1900")
	b = header(b, "MAN", `"ssdp:discover"`)
	b = append(b, "MX: "...)
	b = strconv.AppendInt(b, int64(mx), 10)
	b = append(b, "\r\n"...)
	b = header(b, "ST", target)
	return append(b, "\r\n"...)
}

// Advertisement describes an advertised UPnP root device.
type Advertisement struct {
	// UUID is the device UDN, typically stable and unique (Table 2).
	UUID string
	// Target is the device/service type advertised.
	Target string
	// Location is the description URL, e.g. "http://192.168.10.9:49152/desc.xml".
	Location string
	// Server is the SERVER header exposing OS and UPnP stack versions,
	// e.g. "Linux/3.14 UPnP/1.0 IpBridge/1.56.0".
	Server string
}

// Notify builds a NOTIFY ssdp:alive datagram.
func (a Advertisement) Notify() []byte {
	b := make([]byte, 0, 140+len(a.Location)+len(a.Server)+len(a.UUID)+2*len(a.Target))
	b = append(b, "NOTIFY * HTTP/1.1\r\n"...)
	b = header(b, "CACHE-CONTROL", "max-age=1800")
	b = header(b, "HOST", "239.255.255.250:1900")
	b = header(b, "LOCATION", a.Location)
	b = header(b, "NT", a.Target)
	b = header(b, "NTS", "ssdp:alive")
	b = header(b, "SERVER", a.Server)
	return usn(b, a.UUID, a.Target)
}

// Response builds a unicast 200 OK answer to an M-SEARCH.
func (a Advertisement) Response(st string) []byte {
	b := make([]byte, 0, 100+len(a.Location)+len(a.Server)+len(a.UUID)+2*len(st))
	b = append(b, "HTTP/1.1 200 OK\r\n"...)
	b = header(b, "CACHE-CONTROL", "max-age=1800")
	b = header(b, "EXT", "")
	b = header(b, "LOCATION", a.Location)
	b = header(b, "SERVER", a.Server)
	b = header(b, "ST", st)
	return usn(b, a.UUID, st)
}

// Matches reports whether the advertisement should answer a search target.
func (a Advertisement) Matches(st string) bool {
	switch st {
	case TargetAll:
		return true
	case TargetRootDevice:
		return true
	}
	return strings.EqualFold(st, a.Target) || strings.EqualFold(st, "uuid:"+a.UUID)
}

// searchMemoMax bounds a responder's memo of search targets. A lab
// responder sees a handful of distinct M-SEARCH payloads, so the bound only
// stops a stream of novel searches from growing the memo without limit.
const searchMemoMax = 64

// Responder answers M-SEARCH queries and periodically NOTIFYs.
//
// An M-SEARCH is multicast to every responder on the LAN, mostly with one
// of a few payloads, so a responder keeps the search target of each payload
// it has parsed and does not parse a repeated search again. It keeps the
// target, not the answer: each answer is built from Ads when it is sent, so
// Ads may change at any time (a firmware update rewrites Server).
type Responder struct {
	Host *stack.Host
	Ads  []Advertisement
	// Passive disables M-SEARCH responses (devices that only NOTIFY; only
	// 9 of 30 SSDP devices in the lab answer searches, §5.1).
	Passive bool
	// OnSearch observes inbound searches (honeypot/analysis hook). It fires
	// for every search, memoized or not.
	OnSearch func(st string, from netip.Addr)

	// targets is the search memo, keyed by M-SEARCH payload.
	targets map[string]string
}

// Start joins the SSDP group and begins answering.
func (r *Responder) Start() {
	r.Host.JoinGroup(netx.SSDPGroup)
	r.Host.OpenUDP(Port, r.onDatagram)
}

func (r *Responder) onDatagram(dg stack.Datagram) {
	// Only searches get an answer; the NOTIFYs and 200 OKs that make up
	// most SSDP traffic are dropped on their start line, before Parse.
	if kindOf(dg.Payload) != "M-SEARCH" {
		return
	}
	st, ok := r.targets[string(dg.Payload)]
	if !ok {
		m, err := Parse(dg.Payload)
		if err != nil {
			return
		}
		st = m.ST()
		r.remember(dg.Payload, st)
	}
	if r.OnSearch != nil {
		r.OnSearch(st, dg.Src)
	}
	if r.Passive {
		return
	}
	for _, ad := range r.Ads {
		if ad.Matches(st) {
			answered := st
			if st == TargetAll {
				answered = ad.Target
			}
			r.Host.SendUDP(Port, dg.Src, dg.SrcPort, ad.Response(answered))
		}
	}
}

// remember memoizes the search target of an M-SEARCH payload, starting the
// memo afresh when it is full.
func (r *Responder) remember(payload []byte, st string) {
	if r.targets == nil {
		r.targets = make(map[string]string)
	}
	if len(r.targets) >= searchMemoMax {
		clear(r.targets)
	}
	r.targets[string(payload)] = st
}

// NotifyAll multicasts a NOTIFY for every advertisement.
func (r *Responder) NotifyAll() {
	for _, ad := range r.Ads {
		r.Host.SendUDP(Port, netx.SSDPGroup, Port, ad.Notify())
	}
}

// Search multicasts an M-SEARCH from an ephemeral port and delivers parsed
// responses to fn. The socket auto-closes after the response window so that
// periodic searchers (Google: every 20 s, §5.1) do not exhaust ports over
// multi-day runs.
func Search(h *stack.Host, target string, fn func(m *Message, from netip.Addr)) {
	sock := h.OpenUDPEphemeral(func(dg stack.Datagram) {
		m, err := Parse(dg.Payload)
		if err != nil || m.Kind != "RESPONSE" {
			return
		}
		if fn != nil {
			fn(m, dg.Src)
		}
	})
	sock.SendTo(netx.SSDPGroup, Port, MSearch(target, 2))
	h.Sched.After(10*time.Second, sock.Close)
}

// Device is the UPnP device-description XML document (Table 5's SSDP
// example). Field names follow the UPnP Device Architecture spec.
type Device struct {
	XMLName      xml.Name        `xml:"root"`
	FriendlyName string          `xml:"device>friendlyName"`
	Manufacturer string          `xml:"device>manufacturer"`
	ModelName    string          `xml:"device>modelName"`
	SerialNumber string          `xml:"device>serialNumber"`
	UDN          string          `xml:"device>UDN"`
	DeviceType   string          `xml:"device>deviceType"`
	Services     []DeviceService `xml:"device>serviceList>service"`
}

// DeviceService is one service entry in a description document.
type DeviceService struct {
	ServiceType string `xml:"serviceType"`
	ControlURL  string `xml:"controlURL"`
}

// MarshalXML renders the description document.
func (d *Device) Document() ([]byte, error) {
	out, err := xml.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

// ParseDevice decodes a description document.
func ParseDevice(data []byte) (*Device, error) {
	var d Device
	if err := xml.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("ssdp: bad device description: %w", err)
	}
	return &d, nil
}
