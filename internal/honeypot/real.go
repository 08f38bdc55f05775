package honeypot

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"iotlan/internal/ssdp"
	"iotlan/internal/telnetx"
)

// Server runs the honeypot on a real network through the standard library:
// an SSDP responder, the HTTP description server its replies point to, and
// a telnet login. Ports are configurable since the well-known ones need
// elevated privileges on a real host.
type Server struct {
	HP *Honeypot
	// SSDPAddr is the UDP listen address for SSDP (default ":1900").
	SSDPAddr string
	// HTTPAddr is the TCP listen address for the description server
	// (default ":8080").
	HTTPAddr string
	// TelnetAddr is the TCP listen address for telnet (default ":2323").
	TelnetAddr string

	// mu guards HP.Events, which the serving goroutines append to, and
	// listeners.
	mu        sync.Mutex
	listeners []interface{ Close() error }
}

func (s *Server) logLocked(proto string, from netip.Addr, detail string) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.HP.log(now, proto, from, detail)
}

// Snapshot returns a copy of the honeypot with its event log copied under
// the lock the serving goroutines log under. Read a running server's log
// through it, not through HP.Events.
func (s *Server) Snapshot() *Honeypot {
	s.mu.Lock()
	defer s.mu.Unlock()
	hp := *s.HP
	hp.Events = slices.Clone(s.HP.Events)
	return &hp
}

// Start binds all listeners and serves until ctx is cancelled.
func (s *Server) Start(ctx context.Context) error {
	if s.SSDPAddr == "" {
		s.SSDPAddr = ":1900"
	}
	if s.HTTPAddr == "" {
		s.HTTPAddr = ":8080"
	}
	if s.TelnetAddr == "" {
		s.TelnetAddr = ":2323"
	}
	httpAddr, err := s.startHTTP()
	if err != nil {
		return err
	}
	if err := s.startSSDP(httpAddr); err != nil {
		s.Close()
		return err
	}
	if err := s.startTelnet(); err != nil {
		s.Close()
		return err
	}
	go func() {
		<-ctx.Done()
		s.Close()
	}()
	return nil
}

// Close shuts every listener down.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.listeners {
		l.Close()
	}
	s.listeners = nil
}

func (s *Server) track(l interface{ Close() error }) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.listeners = append(s.listeners, l)
}

func addrOf(a net.Addr) netip.Addr {
	ap, err := netip.ParseAddrPort(a.String())
	if err != nil {
		return netip.Addr{}
	}
	return ap.Addr().Unmap()
}

// location is the description URL a reply to a searcher at to advertises:
// the HTTP listener's bound address, or, when it is bound to a wildcard, the
// local address that the reply leaves from toward the searcher. A connected
// UDP socket reports that address without sending anything.
func location(httpAddr netip.AddrPort, to net.Addr) string {
	host := httpAddr.Addr().Unmap()
	if host.IsUnspecified() {
		if c, err := net.Dial("udp", to.String()); err == nil {
			host = addrOf(c.LocalAddr())
			c.Close()
		}
	}
	return "http://" + netip.AddrPortFrom(host, httpAddr.Port()).String() + "/description.xml"
}

func (s *Server) startSSDP(httpAddr netip.AddrPort) error {
	pc, err := net.ListenPacket("udp4", s.SSDPAddr)
	if err != nil {
		return fmt.Errorf("honeypot: ssdp listen: %w", err)
	}
	s.track(pc)
	ad := ssdp.Advertisement{
		UUID:   s.HP.Token,
		Target: ssdp.TargetBasic,
		Server: "Linux/3.14 UPnP/1.0 HoneyBridge/1.0",
	}
	go func() {
		buf := make([]byte, 2048)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			m, err := ssdp.Parse(buf[:n])
			if err != nil || m.Kind != "M-SEARCH" {
				continue
			}
			s.logLocked("ssdp", addrOf(from), "M-SEARCH "+m.ST())
			ad.Location = location(httpAddr, from)
			pc.WriteTo(ad.Response(m.ST()), from)
		}
	}()
	return nil
}

// startHTTP serves the description document and returns the address it is
// bound to.
func (s *Server) startHTTP() (netip.AddrPort, error) {
	l, err := net.Listen("tcp", s.HTTPAddr)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("honeypot: http listen: %w", err)
	}
	s.track(l)
	desc := &ssdp.Device{
		FriendlyName: "Honey Hue", Manufacturer: "Honeypot", ModelName: "HB-1",
		SerialNumber: s.HP.Token, UDN: "uuid:" + s.HP.Token, DeviceType: ssdp.TargetBasic,
	}
	doc, _ := desc.Document()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 4096)
				n, err := conn.Read(buf)
				if err != nil {
					return
				}
				line := string(buf[:n])
				if i := strings.IndexByte(line, '\r'); i > 0 {
					line = line[:i]
				}
				s.logLocked("http", addrOf(conn.RemoteAddr()), line)
				body := doc
				fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nServer: HoneyBridge/1.0\r\nContent-Type: text/xml\r\nContent-Length: %d\r\n\r\n", len(body))
				conn.Write(body)
			}(conn)
		}
	}()
	return l.Addr().(*net.TCPAddr).AddrPort(), nil
}

func (s *Server) startTelnet() error {
	l, err := net.Listen("tcp", s.TelnetAddr)
	if err != nil {
		return fmt.Errorf("honeypot: telnet listen: %w", err)
	}
	s.track(l)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				sess := &telnetx.Session{Banner: "BusyBox v1.12.1 honeypot-" + s.HP.Token}
				from := addrOf(conn.RemoteAddr())
				s.logLocked("telnet", from, "connect")
				conn.Write(sess.Greeting())
				buf := make([]byte, 512)
				for {
					conn.SetReadDeadline(time.Now().Add(30 * time.Second))
					n, err := conn.Read(buf)
					if err != nil {
						return
					}
					before := len(sess.Attempts)
					reply := sess.Feed(buf[:n])
					if len(sess.Attempts) > before {
						last := sess.Attempts[len(sess.Attempts)-1]
						s.logLocked("telnet", from, fmt.Sprintf("login %s:%s", last[0], last[1]))
					}
					conn.Write(reply)
				}
			}(conn)
		}
	}()
	return nil
}
