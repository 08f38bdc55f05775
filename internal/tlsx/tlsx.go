// Package tlsx simulates the TLS usage patterns §5.2 analyzes without real
// cryptography: byte-level record framing that classifiers can fingerprint
// (content type 0x16, version bytes), ClientHello/ServerHello negotiation of
// versions 1.0–1.3, certificate metadata (issuer/subject CN, validity,
// self-signed, key size) visible in cleartext for ≤1.2 and hidden for 1.3
// (as on Apple devices), two-way authentication, and opaque application
// records.
//
// Substitution note (DESIGN.md): real X.509 and key exchange are replaced by
// a JSON certificate descriptor and XOR "encryption". Every property the
// paper's analysis reads — versions on the wire, cert lifetimes, key sizes,
// who sends certs — is preserved.
package tlsx

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"
	"time"

	"iotlan/internal/stack"
)

// TLS versions on the wire.
const (
	VersionTLS10 = 0x0301
	VersionTLS11 = 0x0302
	VersionTLS12 = 0x0303
	VersionTLS13 = 0x0304
)

// VersionName renders a version for reports ("TLSv1.2").
func VersionName(v uint16) string {
	switch v {
	case VersionTLS10:
		return "TLSv1.0"
	case VersionTLS11:
		return "TLSv1.1"
	case VersionTLS12:
		return "TLSv1.2"
	case VersionTLS13:
		return "TLSv1.3"
	}
	return fmt.Sprintf("TLS(%#04x)", v)
}

// Record content types.
const (
	RecordHandshake = 22
	RecordAppData   = 23
)

// Handshake message types carried inside handshake records.
const (
	msgClientHello = 1
	msgServerHello = 2
	msgCertificate = 11
	msgFinished    = 20
)

// CertMeta is the simulated certificate: exactly the fields the Nessus-like
// scanner and §5.2 analysis consume.
type CertMeta struct {
	IssuerCN   string    `json:"issuer_cn"`
	SubjectCN  string    `json:"subject_cn"`
	NotBefore  time.Time `json:"not_before"`
	NotAfter   time.Time `json:"not_after"`
	SelfSigned bool      `json:"self_signed"`
	// KeyBits is the symmetric-strength equivalent; 64–122 on Chromecast's
	// port 8009 triggers the CVE-2016-2183 birthday-attack finding.
	KeyBits int `json:"key_bits"`
}

// ValidityYears returns the certificate lifetime in years.
func (c CertMeta) ValidityYears() float64 {
	return c.NotAfter.Sub(c.NotBefore).Hours() / (24 * 365)
}

// Config is a TLS endpoint's policy.
type Config struct {
	// Version is the negotiated version (the server's, which wins here).
	Version uint16
	// Cert is the endpoint's certificate.
	Cert CertMeta
	// RequireClientCert enables two-way authentication (Amazon Echo).
	RequireClientCert bool
}

// record frames a TLS record. TLS 1.3 sets the legacy record version to 1.2
// on the wire, like real stacks.
func record(contentType uint8, version uint16, body []byte) []byte {
	wireVersion := version
	if version == VersionTLS13 {
		wireVersion = VersionTLS12
	}
	out := make([]byte, 5+len(body))
	out[0] = contentType
	binary.BigEndian.PutUint16(out[1:3], wireVersion)
	binary.BigEndian.PutUint16(out[3:5], uint16(len(body)))
	copy(out[5:], body)
	return out
}

type handshakeBody struct {
	Version uint16    `json:"version"`
	SNI     string    `json:"sni,omitempty"`
	Cert    *CertMeta `json:"cert,omitempty"`
	// EncryptedCert marks TLS 1.3 handshakes whose certificates an observer
	// cannot read.
	EncryptedCert bool `json:"encrypted_cert,omitempty"`
	RequestCert   bool `json:"request_cert,omitempty"`
}

func handshake(msgType uint8, version uint16, body handshakeBody) []byte {
	payload, _ := json.Marshal(body)
	msg := make([]byte, 4+len(payload))
	msg[0] = msgType
	msg[1] = byte(len(payload) >> 16)
	msg[2] = byte(len(payload) >> 8)
	msg[3] = byte(len(payload))
	copy(msg[4:], payload)
	return record(RecordHandshake, version, msg)
}

// ParsedRecord is one observer-decoded TLS record.
type ParsedRecord struct {
	ContentType uint8
	WireVersion uint16
	MsgType     uint8 // handshake records only
	Hello       *handshakeBody
}

// ParseRecord decodes the first TLS record in data, the way a passive
// classifier sees it.
func ParseRecord(data []byte) (*ParsedRecord, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("tlsx: short record")
	}
	if data[0] != RecordHandshake && data[0] != RecordAppData {
		return nil, fmt.Errorf("tlsx: unknown content type %d", data[0])
	}
	v := binary.BigEndian.Uint16(data[1:3])
	if v>>8 != 3 {
		return nil, fmt.Errorf("tlsx: bad version %#04x", v)
	}
	n := int(binary.BigEndian.Uint16(data[3:5]))
	if 5+n > len(data) {
		return nil, fmt.Errorf("tlsx: truncated record")
	}
	pr := &ParsedRecord{ContentType: data[0], WireVersion: v}
	if data[0] == RecordHandshake && n >= 4 {
		pr.MsgType = data[5]
		var hb handshakeBody
		if json.Unmarshal(data[9:5+n], &hb) == nil {
			pr.Hello = &hb
		}
	}
	return pr, nil
}

// IsTLS reports whether bytes look like a TLS record (classifier check).
func IsTLS(data []byte) bool {
	return len(data) >= 5 &&
		(data[0] == RecordHandshake || data[0] == RecordAppData) &&
		data[1] == 3 && data[2] <= 4
}

// obscure XORs app data so payloads are opaque to the classifier but the
// endpoints (and tests) can invert it.
func obscure(b []byte) []byte {
	out := make([]byte, len(b))
	for i, x := range b {
		out[i] = x ^ 0xaa
	}
	return out
}

// Conn is a simulated TLS session over a stack.TCPConn.
type Conn struct {
	TCP    *stack.TCPConn
	Config Config
	// Established reports handshake completion.
	Established bool
	// PeerCert is the certificate received from the peer (zero if the
	// handshake hid it, as TLS 1.3 does).
	PeerCert CertMeta
	// OnData delivers decrypted application payloads.
	OnData func(c *Conn, plaintext []byte)
	// OnEstablished fires when the handshake completes.
	OnEstablished func(c *Conn)

	isClient bool
}

// Server wraps a listening port in simulated TLS.
type Server struct {
	Host   *stack.Host
	Port   uint16
	Config Config
	// OnAccept fires with the established TLS connection.
	OnAccept func(c *Conn)
}

// NewServer starts a TLS server on port.
func NewServer(h *stack.Host, port uint16, cfg Config, onAccept func(c *Conn)) *Server {
	s := &Server{Host: h, Port: port, Config: cfg, OnAccept: onAccept}
	h.ListenTCP(port, s.accept)
	return s
}

func (s *Server) accept(tc *stack.TCPConn) {
	conn := &Conn{TCP: tc, Config: s.Config}
	tc.OnData = func(tc *stack.TCPConn, data []byte) { conn.serverHandle(data, s) }
}

func (c *Conn) serverHandle(data []byte, s *Server) {
	pr, err := ParseRecord(data)
	if err != nil {
		return
	}
	switch {
	case pr.ContentType == RecordHandshake && pr.MsgType == msgClientHello:
		cfg := c.Config
		hide := cfg.Version == VersionTLS13
		body := handshakeBody{Version: cfg.Version, RequestCert: cfg.RequireClientCert, EncryptedCert: hide}
		if !hide {
			cert := cfg.Cert
			body.Cert = &cert
		}
		c.TCP.Send(handshake(msgServerHello, cfg.Version, body))
		if !cfg.RequireClientCert {
			c.finish(s.OnAccept)
		}
	case pr.ContentType == RecordHandshake && pr.MsgType == msgCertificate:
		if pr.Hello != nil && pr.Hello.Cert != nil {
			c.PeerCert = *pr.Hello.Cert
		}
		c.finish(s.OnAccept)
	case pr.ContentType == RecordAppData:
		if c.OnData != nil {
			c.OnData(c, obscure(data[5:]))
		}
	}
}

func (c *Conn) finish(onAccept func(*Conn)) {
	if c.Established {
		return
	}
	c.Established = true
	if onAccept != nil {
		onAccept(c)
	}
	if c.OnEstablished != nil {
		c.OnEstablished(c)
	}
}

// Dial opens a TLS connection to dst:port; Config.Cert may be the zero
// value when the client has no certificate.
func Dial(h *stack.Host, dst netip.Addr, port uint16, cfg Config, sni string) *Conn {
	tc := h.DialTCP(dst, port)
	conn := &Conn{TCP: tc, Config: cfg, isClient: true}
	tc.OnConnect = func(tc *stack.TCPConn) {
		tc.Send(handshake(msgClientHello, cfg.Version, handshakeBody{Version: cfg.Version, SNI: sni}))
	}
	tc.OnData = func(tc *stack.TCPConn, data []byte) { conn.clientHandle(data) }
	return conn
}

// Send transmits plaintext as one opaque application record.
func (c *Conn) Send(plaintext []byte) {
	if !c.Established {
		return
	}
	c.TCP.Send(record(RecordAppData, c.Config.Version, obscure(plaintext)))
}

// Close closes the underlying TCP connection.
func (c *Conn) Close() { c.TCP.Close() }

func (c *Conn) clientHandle(data []byte) {
	pr, err := ParseRecord(data)
	if err != nil {
		return
	}
	switch {
	case pr.ContentType == RecordHandshake && pr.MsgType == msgServerHello:
		if pr.Hello != nil {
			c.Config.Version = pr.Hello.Version
			if pr.Hello.Cert != nil {
				c.PeerCert = *pr.Hello.Cert
			}
			if pr.Hello.RequestCert {
				cert := c.Config.Cert
				c.TCP.Send(handshake(msgCertificate, c.Config.Version, handshakeBody{Version: c.Config.Version, Cert: &cert}))
			}
		}
		c.finish(nil)
	case pr.ContentType == RecordAppData:
		if c.OnData != nil {
			c.OnData(c, obscure(data[5:]))
		}
	}
}
