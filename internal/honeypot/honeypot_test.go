package honeypot

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/lan"
	"iotlan/internal/mdns"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/ssdp"
	"iotlan/internal/stack"
)

func simSetup() (*sim.Scheduler, *lan.Network, func(byte) *stack.Host) {
	s := sim.NewScheduler(1)
	n := lan.New(s)
	return s, n, func(last byte) *stack.Host {
		h := stack.NewHost(n, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
		h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
		return h
	}
}

func TestTokenDeterministic(t *testing.T) {
	a, b := New("fake-hue", 7), New("fake-hue", 7)
	if a.Token != b.Token {
		t.Fatal("token not deterministic")
	}
	c := New("fake-hue", 8)
	if c.Token == a.Token {
		t.Fatal("different seeds share a token")
	}
}

func TestSSDPInteractionLogged(t *testing.T) {
	sched, _, mk := simSetup()
	hp := New("fake-hue", 1)
	hp.Attach(mk(99))

	scanner := mk(50)
	var usn string
	ssdp.Search(scanner, ssdp.TargetAll, func(m *ssdp.Message, from netip.Addr) { usn = m.USN() })
	sched.RunFor(time.Second)

	if !strings.Contains(usn, hp.Token) {
		t.Fatalf("response USN %q lacks honeytoken", usn)
	}
	if hp.Interactions()["ssdp"] != 1 {
		t.Fatalf("interactions: %v", hp.Interactions())
	}
	if len(hp.Visitors()) != 1 || hp.Visitors()[0] != scanner.IPv4() {
		t.Fatalf("visitors: %v", hp.Visitors())
	}
}

func TestMDNSInteractionLogged(t *testing.T) {
	sched, _, mk := simSetup()
	hp := New("fake-hue", 1)
	hp.Attach(mk(99))
	phone := mk(50)
	gotToken := false
	mdns.Listen(phone, func(m *dnsmsg.Message, from netip.Addr) {
		for _, rr := range append(m.Answers, m.Extra...) {
			if hp.TokenAppearsIn([]byte(rr.Name + rr.Target + strings.Join(rr.TXT, " "))) {
				gotToken = true
			}
		}
	})
	sched.RunFor(100 * time.Millisecond)
	mdns.Query(phone, "_hue._tcp.local", false)
	sched.RunFor(time.Second)
	if hp.Interactions()["mdns"] == 0 {
		t.Fatalf("mdns query not logged: %v", hp.Interactions())
	}
	if !gotToken {
		t.Fatal("mdns response lacks honeytoken")
	}
}

func TestTelnetCredentialCapture(t *testing.T) {
	sched, _, mk := simSetup()
	hp := New("fake-cam", 1)
	hp.Attach(mk(99))
	attacker := mk(66)
	conn := attacker.DialTCP(netip.MustParseAddr("192.168.10.99"), 23)
	step := 0
	conn.OnData = func(c *stack.TCPConn, data []byte) {
		switch step {
		case 0:
			c.Send([]byte("root\r\n"))
		case 1:
			c.Send([]byte("hunter2\r\n"))
		default:
			c.Close()
		}
		step++
	}
	sched.RunFor(5 * time.Second)
	found := false
	for _, e := range hp.Events {
		if e.Proto == "telnet" && e.Detail == "login root:hunter2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("credentials not captured: %+v", hp.Events)
	}
}

func TestTokenAppearsIn(t *testing.T) {
	hp := New("x", 1)
	if !hp.TokenAppearsIn([]byte("prefix " + hp.Token + " suffix")) {
		t.Fatal("token not found")
	}
	if hp.TokenAppearsIn([]byte("nothing here")) {
		t.Fatal("false positive")
	}
}

// startLoopback starts a Server whose SSDP and telnet listeners are on
// 127.0.0.1 and whose HTTP listener is on httpAddr, and returns it with the
// three bound addresses.
func startLoopback(t *testing.T, name, httpAddr string) (srv *Server, ssdpAddr, descAddr, telnetAddr string) {
	t.Helper()
	srv = &Server{HP: New(name, 1), SSDPAddr: "127.0.0.1:0", HTTPAddr: httpAddr, TelnetAddr: "127.0.0.1:0"}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, l := range srv.listeners {
		switch l := l.(type) {
		case net.PacketConn:
			ssdpAddr = l.LocalAddr().String()
		case net.Listener:
			// Start binds HTTP before telnet.
			if descAddr == "" {
				descAddr = l.Addr().String()
			} else {
				telnetAddr = l.Addr().String()
			}
		}
	}
	return srv, ssdpAddr, descAddr, telnetAddr
}

// readUntil reads from c until what it has read contains want.
func readUntil(t *testing.T, c net.Conn, want string) {
	t.Helper()
	buf := make([]byte, 8192)
	total := 0
	for total < len(buf) && !strings.Contains(string(buf[:total]), want) {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := c.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	if !strings.Contains(string(buf[:total]), want) {
		t.Fatalf("read %q, want it to contain %q", buf[:total], want)
	}
}

func TestRealServerHTTPAndTelnet(t *testing.T) {
	srv, _, httpAddr, telnetAddr := startLoopback(t, "real", "127.0.0.1:0")
	hp := srv.HP

	// HTTP fetch must return the token-bearing description.
	conn, err := net.Dial("tcp", httpAddr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /description.xml HTTP/1.1\r\nHost: x\r\n\r\n")
	readUntil(t, conn, hp.Token)
	conn.Close()

	// Telnet: the greeting ends in a login prompt, and a full login attempt
	// is captured.
	tc, err := net.Dial("tcp", telnetAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	readUntil(t, tc, "login: ")
	tc.Write([]byte("root\r\n"))
	readUntil(t, tc, "Password: ")
	tc.Write([]byte("hunter2\r\n"))
	readUntil(t, tc, "Login incorrect")

	// Each event is logged before the reply that was waited for above.
	snap := srv.Snapshot()
	var loginLogged bool
	prober := netip.MustParseAddr("127.0.0.1")
	for _, e := range snap.Events {
		if e.From != prober {
			t.Errorf("event %q from %v, want %v", e.Detail, e.From, prober)
		}
		if e.Proto == "telnet" && e.Detail == "login root:hunter2" {
			loginLogged = true
		}
	}
	if got := snap.Interactions(); got["http"] != 1 || got["telnet"] != 2 {
		t.Errorf("interactions %v, want 1 http and 2 telnet (connect, login)", got)
	}
	if !loginLogged {
		t.Errorf("telnet credentials not captured; events: %+v", snap.Events)
	}
}

// TestRealServerTelnetPipelinedLogin: a client that sends its user name and
// password in one write has both read as lines, so the attempt is captured.
func TestRealServerTelnetPipelinedLogin(t *testing.T) {
	srv, _, _, telnetAddr := startLoopback(t, "pipelined", "127.0.0.1:0")
	tc, err := net.Dial("tcp", telnetAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	readUntil(t, tc, "login: ")
	tc.Write([]byte("root\r\nhunter2\r\n"))
	readUntil(t, tc, "Login incorrect")
	for _, e := range srv.Snapshot().Events {
		if e.Proto == "telnet" && e.Detail == "login root:hunter2" {
			return
		}
	}
	t.Fatalf("pipelined login not captured; events: %+v", srv.Snapshot().Events)
}

// TestRealServerHTTPSplitRequestLine: a request line that arrives over two
// writes is logged whole.
func TestRealServerHTTPSplitRequestLine(t *testing.T) {
	srv, _, httpAddr, _ := startLoopback(t, "split", "127.0.0.1:0")
	conn, err := net.Dial("tcp", httpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("GET /descr"))
	// The pause lets the first part reach the server as a read of its own;
	// the request line must be logged whole however the reads fall.
	time.Sleep(20 * time.Millisecond)
	conn.Write([]byte("iption.xml HTTP/1.1\r\nHost: x\r\n\r\n"))
	readUntil(t, conn, srv.HP.Token)
	events := srv.Snapshot().Events
	if len(events) != 1 || events[0].Proto != "http" || events[0].Detail != "GET /description.xml HTTP/1.1" {
		t.Fatalf("events %+v, want one http event with the whole request line", events)
	}
}

// TestRealServerSSDP: an M-SEARCH reply carries the honeytoken and a
// LOCATION the searcher can fetch the token-bearing description from, both
// with the HTTP listener on a named host and on the wildcard address, where
// the host advertised is the one the reply leaves from.
func TestRealServerSSDP(t *testing.T) {
	for _, httpAddr := range []string{"127.0.0.1:0", ":0"} {
		t.Run(httpAddr, func(t *testing.T) {
			srv, udpAddr, descAddr, _ := startLoopback(t, "real-ssdp", httpAddr)
			hp := srv.HP
			c, err := net.Dial("udp", udpAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Write(ssdp.MSearch(ssdp.TargetAll, 1))
			buf := make([]byte, 2048)
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := c.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ssdp.Parse(buf[:n])
			if err != nil || !strings.Contains(m.USN(), hp.Token) {
				t.Fatalf("SSDP response: %v %q", err, buf[:n])
			}

			_, port, err := net.SplitHostPort(descAddr)
			if err != nil {
				t.Fatal(err)
			}
			want := "http://127.0.0.1:" + port + "/description.xml"
			if got := m.Location(); got != want {
				t.Fatalf("LOCATION %q, want %q", got, want)
			}
			client := &http.Client{Timeout: 2 * time.Second}
			resp, err := client.Get(m.Location())
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !hp.TokenAppearsIn(body) {
				t.Fatalf("GET %s: %d %v %q", m.Location(), resp.StatusCode, err, body)
			}
		})
	}
}

// TestSnapshotWhileProbesLand reads the log the way iothoneypot does, on a
// tick while telnet probes land, and expects every probe logged. The
// serving goroutines append to the log under the server's lock, so a
// reader that ranges over HP.Events directly races them; under -race this
// test is what shows that Snapshot does not.
func TestSnapshotWhileProbesLand(t *testing.T) {
	const probers, probes = 4, 50
	srv, _, _, telnetAddr := startLoopback(t, "snapshot", "127.0.0.1:0")
	var wg sync.WaitGroup
	errs := make(chan error, probers)
	for range probers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for range probes {
				c, err := net.Dial("tcp", telnetAddr)
				if err != nil {
					errs <- err
					return
				}
				// The server logs the connect before it writes the greeting.
				c.SetReadDeadline(time.Now().Add(2 * time.Second))
				_, err = c.Read(buf)
				c.Close()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	printed := 0
	for landing := true; landing; {
		select {
		case <-done:
			landing = false
		case <-time.After(time.Millisecond):
		}
		events := srv.Snapshot().Events
		for _, e := range events[printed:] {
			fmt.Fprintf(io.Discard, "%s %-7s %-16s %s\n", e.Time.Format("15:04:05"), e.Proto, e.From, e.Detail)
		}
		printed = len(events)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if got := snap.Interactions()["telnet"]; got != probers*probes {
		t.Fatalf("%d telnet connects logged, want %d", got, probers*probes)
	}
	if v := snap.Visitors(); len(v) != 1 || v[0] != netip.MustParseAddr("127.0.0.1") {
		t.Fatalf("visitors %v, want 127.0.0.1 alone", v)
	}
}
