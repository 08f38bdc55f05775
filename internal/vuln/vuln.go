// Package vuln implements the Nessus-like vulnerability scanner of the
// study (§3.1, §5.2): banner collection, version-based CVE matching, TLS
// certificate analysis (small keys → CVE-2016-2183 birthday attacks, long
// validity, self-signed), DNS version disclosure and cache snooping, ONVIF
// snapshot and backup-file exposure checks, telnet detection, deprecated
// UPnP stacks, and the TPLINK-SHP unauthenticated-control probe.
package vuln

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/httpx"
	"iotlan/internal/ssdp"
	"iotlan/internal/stack"
	"iotlan/internal/tlsx"
	"iotlan/internal/tplink"
)

// Severity ranks findings Nessus-style.
type Severity int

// Severities.
const (
	Info Severity = iota
	Low
	Medium
	High
	Critical
)

// String renders the severity.
func (s Severity) String() string {
	return [...]string{"info", "low", "medium", "high", "critical"}[s]
}

// Finding is one scanner observation.
type Finding struct {
	Target   netip.Addr
	Port     uint16
	Severity Severity
	// ID matches the catalog ground truth ("CVE-2016-2183", …).
	ID       string
	Title    string
	Evidence string
}

// Scanner audits targets from an auditor host on the LAN.
type Scanner struct {
	Host *stack.Host
}

// tlsPorts are ports the scanner attempts TLS handshakes on when open.
var tlsPorts = map[uint16]bool{
	443: true, 7000: true, 8009: true, 8443: true,
	9543: true, 10001: true, 49152: true, 49153: true, 55443: true,
}

// Audit runs every check against a target with the given open ports and
// invokes done with severity-sorted findings once probes settle.
func (s *Scanner) Audit(target netip.Addr, openTCP, openUDP []uint16, done func([]Finding)) {
	var findings []Finding
	adds := func(f Finding) {
		f.Target = target
		findings = append(findings, f)
	}

	for _, port := range openTCP {
		port := port
		switch {
		case tlsPorts[port]:
			s.checkTLS(target, port, adds)
		case port == 23 || port == 2323:
			s.checkTelnet(target, port, adds)
		case port == 9999:
			s.checkTPLink(target, adds)
		default:
			s.checkHTTP(target, port, adds)
		}
	}
	for _, port := range openUDP {
		if port == 53 {
			s.checkDNS(target, adds)
		}
	}
	s.checkUPnP(target, adds)

	s.Host.Sched.After(30*time.Second, func() {
		sort.SliceStable(findings, func(i, j int) bool {
			if findings[i].Severity != findings[j].Severity {
				return findings[i].Severity > findings[j].Severity
			}
			return findings[i].ID < findings[j].ID
		})
		done(findings)
	})
}

// checkHTTP grabs banners and probes the exposure paths of §5.2.
func (s *Scanner) checkHTTP(target netip.Addr, port uint16, add func(Finding)) {
	httpx.Get(s.Host, target, port, "/", nil, func(r *httpx.Response) {
		if r == nil {
			return
		}
		banner := r.Header("server")
		if banner != "" {
			add(Finding{Port: port, Severity: Info, ID: "http-banner",
				Title: "HTTP server banner identifies software version", Evidence: banner})
		}
		joined := banner + " " + string(r.Body)
		if strings.Contains(joined, "jquery/1.2") || strings.Contains(joined, "jquery-1.2") {
			add(Finding{Port: port, Severity: High, ID: "CVE-2020-11022",
				Title: "jQuery 1.2 with multiple XSS vulnerabilities", Evidence: banner})
		}
	})
	httpx.Get(s.Host, target, port, "/backup.cgi", nil, func(r *httpx.Response) {
		if r != nil && r.Status == 200 && strings.Contains(string(r.Body), "config-backup") {
			add(Finding{Port: port, Severity: High, ID: "http-backup-exposure",
				Title:    "backup files retrievable without authentication",
				Evidence: firstLine(r.Body)})
		}
	})
	httpx.Get(s.Host, target, port, "/onvif/snapshot", nil, func(r *httpx.Response) {
		if r != nil && r.Status == 200 && len(r.Body) > 2 && r.Body[0] == 0xff && r.Body[1] == 0xd8 {
			add(Finding{Port: port, Severity: High, ID: "onvif-unauth-snapshot",
				Title:    "camera snapshot retrievable via unauthenticated ONVIF request",
				Evidence: fmt.Sprintf("%d-byte JPEG", len(r.Body))})
		}
	})
	httpx.Get(s.Host, target, port, "/cgi-bin/users.cgi", nil, func(r *httpx.Response) {
		if r != nil && r.Status == 200 && len(r.Body) > 0 {
			add(Finding{Port: port, Severity: Medium, ID: "user-account-listing",
				Title: "user accounts listed without authentication", Evidence: firstLine(r.Body)})
		}
	})
	httpx.Get(s.Host, target, port, "/cgi-bin/recording.cgi", nil, func(r *httpx.Response) {
		if r != nil && r.Status == 200 && len(r.Body) > 0 {
			add(Finding{Port: port, Severity: Medium, ID: "recording-path-disclosure",
				Title: "camera recording directory disclosed", Evidence: firstLine(r.Body)})
		}
	})
}

func (s *Scanner) checkTLS(target netip.Addr, port uint16, add func(Finding)) {
	conn := tlsx.Dial(s.Host, target, port, tlsx.Config{Version: tlsx.VersionTLS12}, "")
	conn.OnEstablished = func(c *tlsx.Conn) {
		cert := c.PeerCert
		version := tlsx.VersionName(c.Config.Version)
		add(Finding{Port: port, Severity: Info, ID: "tls-service",
			Title: "TLS service detected", Evidence: version})
		if cert.IssuerCN == "" {
			return // 1.3 hides the certificate from the handshake
		}
		if cert.KeyBits > 0 && cert.KeyBits < 128 {
			add(Finding{Port: port, Severity: High, ID: "CVE-2016-2183",
				Title:    "small TLS key enables birthday attacks on long sessions",
				Evidence: fmt.Sprintf("%d-bit key", cert.KeyBits)})
		}
		if y := cert.ValidityYears(); y >= 10 {
			add(Finding{Port: port, Severity: Low, ID: "tls-long-validity",
				Title: "certificate valid for a decade or more",
				Evidence: fmt.Sprintf("%.0f years (%s → %s)", y,
					cert.NotBefore.Format("2006-01"), cert.NotAfter.Format("2006-01"))})
		}
		if cert.SelfSigned {
			add(Finding{Port: port, Severity: Info, ID: "tls-self-signed",
				Title: "self-signed certificate", Evidence: "issuer=" + cert.IssuerCN})
		}
		c.Close()
	}
}

func (s *Scanner) checkTelnet(target netip.Addr, port uint16, add func(Finding)) {
	conn := s.Host.DialTCP(target, port)
	conn.OnData = func(c *stack.TCPConn, data []byte) {
		if len(data) > 0 && data[0] == 0xff {
			add(Finding{Port: port, Severity: Medium, ID: "telnet-open",
				Title:    "telnet service with cleartext authentication",
				Evidence: bannerText(data)})
		}
		c.Close()
	}
}

func (s *Scanner) checkTPLink(target netip.Addr, add func(Finding)) {
	// Discovery first: the plaintext sysinfo leak.
	sock := s.Host.OpenUDPEphemeral(nil)
	sock.OnDatagram = func(dg stack.Datagram) {
		info, err := tplink.ParseSysinfoResponse(tplink.Deobfuscate(dg.Payload))
		if err != nil || dg.Src != target {
			return
		}
		if info.Latitude != 0 || info.Longitude != 0 {
			add(Finding{Port: 9999, Severity: High, ID: "tplink-geolocation-leak",
				Title:    "device discloses home geolocation in plaintext",
				Evidence: fmt.Sprintf("lat=%.6f lon=%.6f", info.Latitude, info.Longitude)})
		}
	}
	sock.SendTo(target, tplink.Port, tplink.Obfuscate([]byte(tplink.QuerySysinfo)))
	// Then the unauthenticated control probe.
	tplink.Control(s.Host, target, true, func(ok bool) {
		if ok {
			add(Finding{Port: 9999, Severity: Critical, ID: "tplink-shp-unauth",
				Title:    "relay switched without any authentication",
				Evidence: "set_relay_state accepted"})
		}
	})
}

func (s *Scanner) checkDNS(target netip.Addr, add func(Finding)) {
	sock := s.Host.OpenUDPEphemeral(nil)
	sock.OnDatagram = func(dg stack.Datagram) {
		m, err := dnsmsg.Unmarshal(dg.Payload)
		if err != nil || !m.Response || len(m.Answers) == 0 {
			return
		}
		q := ""
		if len(m.Questions) > 0 {
			q = strings.ToLower(m.Questions[0].Name)
		}
		switch {
		case q == "version.bind":
			sw := strings.Join(m.Answers[0].TXT, " ")
			add(Finding{Port: 53, Severity: Info, ID: "dns-version-disclosure",
				Title: "DNS server discloses its software version", Evidence: sw})
			if strings.Contains(sw, "SheerDNS 1.0.0") {
				add(Finding{Port: 53, Severity: High, ID: "SheerDNS-1.0.0",
					Title: "SheerDNS < 1.0.1 multiple vulnerabilities", Evidence: sw})
			}
		case q == "hostname.bind":
			add(Finding{Port: 53, Severity: Low, ID: "dns-hostname-disclosure",
				Title:    "DNS server reveals host name and private IP",
				Evidence: strings.Join(m.Answers[0].TXT, " ")})
		default:
			add(Finding{Port: 53, Severity: Medium, ID: "dns-cache-snooping",
				Title:    "cache snooping reveals recently resolved domains",
				Evidence: q})
		}
	}
	query := func(name string, qtype uint16) {
		m := &dnsmsg.Message{Questions: []dnsmsg.Question{{Name: name, Type: qtype, Class: dnsmsg.ClassIN}}}
		sock.SendTo(target, 53, m.Marshal())
	}
	query("version.bind", dnsmsg.TypeTXT)
	query("hostname.bind", dnsmsg.TypeTXT)
	query("time.apple.com", dnsmsg.TypeA) // snooping probe for a common name
}

func (s *Scanner) checkUPnP(target netip.Addr, add func(Finding)) {
	ssdp.Search(s.Host, ssdp.TargetAll, func(m *ssdp.Message, from netip.Addr) {
		if from != target {
			return
		}
		server := m.Header("SERVER")
		if strings.Contains(server, "UPnP/1.0") {
			add(Finding{Port: 1900, Severity: Medium, ID: "upnp-1.0",
				Title: "deprecated UPnP 1.0 stack with known exploits", Evidence: server})
		}
		if usn := m.USN(); usn != "" {
			add(Finding{Port: 1900, Severity: Info, ID: "ssdp-usn-exposure",
				Title: "SSDP exposes stable device UUID", Evidence: usn})
		}
	})
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 80 {
		s = s[:80]
	}
	return s
}

func bannerText(data []byte) string {
	var sb strings.Builder
	for _, b := range data {
		if b >= 0x20 && b < 0x7f {
			sb.WriteByte(b)
		}
	}
	s := strings.TrimSpace(sb.String())
	if len(s) > 60 {
		s = s[:60]
	}
	return s
}
