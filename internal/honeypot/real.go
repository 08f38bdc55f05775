package honeypot

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"

	"iotlan/internal/netx"
	"iotlan/internal/ssdp"
	"iotlan/internal/telnetx"
)

// Server runs the honeypot against a netx.Fabric: the standard library for a
// real home LAN (the default), or a vnet.Net to exercise the exact same
// accept loops and session code on the simulated LAN. Ports are configurable
// since the well-known ones need elevated privileges on a real host.
//
// The service loops start through the fabric's Go, so on a virtual net the
// clock waits for each to block in its first read or accept. Per-connection
// goroutines use a plain go: the Accept that returned the connection minted
// the grant their first operation claims.
type Server struct {
	HP *Honeypot
	// Net is the network to bind on. Nil means the standard library
	// (netx.System), which every program uses; only tests set it, to a
	// *vnet.Net, so that TestServerInSim can drive this same server over
	// the simulated LAN.
	Net netx.Fabric
	// SSDPAddr is the UDP listen address for SSDP (default ":1900").
	SSDPAddr string
	// HTTPAddr is the TCP listen address for the description server
	// (default ":8080").
	HTTPAddr string
	// TelnetAddr is the TCP listen address for telnet (default ":2323").
	TelnetAddr string

	mu        sync.Mutex
	listeners []interface{ Close() error }
}

func (s *Server) fabric() netx.Fabric {
	if s.Net == nil {
		return netx.System{}
	}
	return s.Net
}

func (s *Server) logLocked(proto string, from netip.Addr, detail string) {
	now := s.fabric().Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.HP.log(now, proto, from, detail)
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
	if err := s.startSSDP(); err != nil {
		return err
	}
	if err := s.startHTTP(); err != nil {
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

func (s *Server) startSSDP() error {
	fab := s.fabric()
	pc, err := fab.ListenPacket("udp4", s.SSDPAddr)
	if err != nil {
		return fmt.Errorf("honeypot: ssdp listen: %w", err)
	}
	s.track(pc)
	ad := ssdp.Advertisement{
		UUID:     s.HP.Token,
		Target:   ssdp.TargetBasic,
		Server:   "Linux/3.14 UPnP/1.0 HoneyBridge/1.0",
		Location: "http://0.0.0.0" + s.HTTPAddr + "/description.xml",
	}
	fab.Go(func() {
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
			pc.WriteTo(ad.Response(m.ST()), from)
		}
	})
	return nil
}

func (s *Server) startHTTP() error {
	fab := s.fabric()
	l, err := fab.Listen("tcp", s.HTTPAddr)
	if err != nil {
		return fmt.Errorf("honeypot: http listen: %w", err)
	}
	s.track(l)
	desc := &ssdp.Device{
		FriendlyName: "Honey Hue", Manufacturer: "Honeypot", ModelName: "HB-1",
		SerialNumber: s.HP.Token, UDN: "uuid:" + s.HP.Token, DeviceType: ssdp.TargetBasic,
	}
	doc, _ := desc.Document()
	fab.Go(func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				conn.SetReadDeadline(fab.Now().Add(5 * time.Second))
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
	})
	return nil
}

func (s *Server) startTelnet() error {
	fab := s.fabric()
	l, err := fab.Listen("tcp", s.TelnetAddr)
	if err != nil {
		return fmt.Errorf("honeypot: telnet listen: %w", err)
	}
	s.track(l)
	fab.Go(func() {
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
					conn.SetReadDeadline(fab.Now().Add(30 * time.Second))
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
	})
	return nil
}
