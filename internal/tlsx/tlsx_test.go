package tlsx

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

func setup() (*sim.Scheduler, *pcap.Capture, func(byte) *stack.Host) {
	s := sim.NewScheduler(1)
	n := lan.New(s)
	c := pcap.NewCapture()
	n.Tap(c.Add)
	return s, c, func(last byte) *stack.Host {
		h := stack.NewHost(n, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
		h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
		return h
	}
}

func googleCert() CertMeta {
	return CertMeta{
		IssuerCN: "Google Cast Root CA", SubjectCN: "192.168.10.9",
		NotBefore:  time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:   time.Date(2042, 1, 1, 0, 0, 0, 0, time.UTC),
		SelfSigned: false, KeyBits: 96,
	}
}

func TestHandshakeTLS12ExposesCert(t *testing.T) {
	sched, _, mk := setup()
	server := mk(9)
	var serverGot []byte
	NewServer(server, 8009, Config{Version: VersionTLS12, Cert: googleCert()}, func(c *Conn) {
		c.OnData = func(c *Conn, plain []byte) {
			serverGot = plain
			c.Send([]byte("pong"))
		}
	})

	client := mk(10)
	var clientGot []byte
	conn := Dial(client, server.IPv4(), 8009, Config{Version: VersionTLS12}, "local")
	conn.OnEstablished = func(c *Conn) { c.Send([]byte("ping")) }
	conn.OnData = func(c *Conn, plain []byte) { clientGot = plain }
	sched.RunFor(time.Second)

	if string(serverGot) != "ping" || string(clientGot) != "pong" {
		t.Fatalf("app data: server=%q client=%q", serverGot, clientGot)
	}
	if conn.PeerCert.IssuerCN != "Google Cast Root CA" {
		t.Fatalf("peer cert: %+v", conn.PeerCert)
	}
	if y := conn.PeerCert.ValidityYears(); y < 19.5 || y > 20.5 {
		t.Fatalf("validity years: %v", y)
	}
}

func TestTLS13HidesCertificate(t *testing.T) {
	sched, cap, mk := setup()
	server := mk(9)
	apple := CertMeta{IssuerCN: "Apple Local CA", SubjectCN: "homepod.local", KeyBits: 256,
		NotBefore: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC), NotAfter: time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)}
	NewServer(server, 7000, Config{Version: VersionTLS13, Cert: apple}, nil)
	client := mk(10)
	conn := Dial(client, server.IPv4(), 7000, Config{Version: VersionTLS13}, "")
	sched.RunFor(time.Second)
	if !conn.Established {
		t.Fatal("handshake did not complete")
	}
	if conn.PeerCert.IssuerCN != "" {
		t.Fatalf("TLS 1.3 leaked cert: %+v", conn.PeerCert)
	}
	// An on-path observer must not see the issuer CN in any packet.
	for _, rec := range cap.All {
		p := rec.Decode()
		if p.HasTCP && len(p.AppPayload) > 0 {
			if string(p.AppPayload) != "" && containsBytes(p.AppPayload, []byte("Apple Local CA")) {
				t.Fatal("certificate visible on the wire under TLS 1.3")
			}
		}
	}
}

func containsBytes(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if string(haystack[i:i+len(needle)]) == string(needle) {
			return true
		}
	}
	return false
}

func TestTwoWayAuth(t *testing.T) {
	sched, _, mk := setup()
	server := mk(9)
	echoCert := CertMeta{IssuerCN: "192.168.10.9", SubjectCN: "192.168.10.9", SelfSigned: true, KeyBits: 128,
		NotBefore: time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC), NotAfter: time.Date(2023, 2, 1, 0, 0, 0, 0, time.UTC)}
	var serverSeen CertMeta
	NewServer(server, 55443, Config{Version: VersionTLS12, Cert: echoCert, RequireClientCert: true}, func(c *Conn) {
		serverSeen = c.PeerCert
	})
	client := mk(10)
	clientCert := CertMeta{IssuerCN: "192.168.10.10", SubjectCN: "192.168.10.10", SelfSigned: true, KeyBits: 128}
	conn := Dial(client, server.IPv4(), 55443, Config{Version: VersionTLS12, Cert: clientCert}, "")
	sched.RunFor(time.Second)
	if !conn.Established {
		t.Fatal("handshake incomplete")
	}
	if serverSeen.SubjectCN != "192.168.10.10" {
		t.Fatalf("server saw client cert %+v", serverSeen)
	}
	if !conn.PeerCert.SelfSigned || conn.PeerCert.SubjectCN != "192.168.10.9" {
		t.Fatalf("client saw server cert %+v", conn.PeerCert)
	}
}

func TestObserverSeesVersions(t *testing.T) {
	sched, cap, mk := setup()
	server := mk(9)
	NewServer(server, 8009, Config{Version: VersionTLS12, Cert: googleCert()}, nil)
	client := mk(10)
	Dial(client, server.IPv4(), 8009, Config{Version: VersionTLS12}, "")
	sched.RunFor(time.Second)
	var versions []uint16
	for _, rec := range cap.All {
		p := rec.Decode()
		if p.HasTCP && IsTLS(p.AppPayload) {
			// The hello body's version field is the one an observer sees
			// negotiated.
			if pr, err := ParseRecord(p.AppPayload); err == nil && pr.ContentType == RecordHandshake && pr.Hello != nil {
				versions = append(versions, pr.Hello.Version)
			}
		}
	}
	if len(versions) < 2 {
		t.Fatalf("observed %d handshake records", len(versions))
	}
	for _, v := range versions {
		if v != VersionTLS12 {
			t.Fatalf("version %s on the wire", VersionName(v))
		}
	}
}

func TestParseRecordRejects(t *testing.T) {
	if _, err := ParseRecord([]byte{22, 3}); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := ParseRecord([]byte{99, 3, 3, 0, 0}); err == nil {
		t.Fatal("unknown content type accepted")
	}
	if _, err := ParseRecord([]byte{22, 9, 9, 0, 0}); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := ParseRecord([]byte{22, 3, 3, 0xff, 0xff, 1}); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestVersionNames(t *testing.T) {
	if VersionName(VersionTLS13) != "TLSv1.3" || VersionName(VersionTLS10) != "TLSv1.0" {
		t.Fatal("version names wrong")
	}
}
