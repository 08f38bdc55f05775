package vnet

import (
	"fmt"
	"net"
	"net/netip"
	"os"
	"time"

	"iotlan/internal/netx"
	"iotlan/internal/obs"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

// timeoutError is the dial-timeout error: a net.Error that is temporary and
// a timeout, matching what a real dialer surfaces for an unanswered SYN.
type timeoutError struct{}

func (timeoutError) Error() string   { return "i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// udpQueueMax bounds buffered inbound datagrams per socket; past it new
// datagrams are dropped, like a full kernel socket buffer.
const udpQueueMax = 256

type dgram struct {
	payload []byte
	from    netip.AddrPort
}

type packetResult struct {
	n    int
	addr net.Addr
	err  error
}

type packetWaiter struct {
	buf []byte
	ch  chan packetResult
	a   actor
}

// PacketConn is a UDP socket over the simulated stack, satisfying
// net.PacketConn with virtual-time deadlines.
type PacketConn struct {
	p    *Pump
	h    *stack.Host
	port uint16
	addr net.Addr

	// Pump-owned state below.
	queue     []dgram
	waiters   []*packetWaiter
	closed    bool
	rdeadline time.Time
	wdeadline time.Time
	rdTimer   *sim.Timer

	cDropped *obs.Counter
}

// newPacketConn binds the port. Runs on the pump.
func newPacketConn(p *Pump, h *stack.Host, port uint16) *PacketConn {
	pc := &PacketConn{
		p: p, h: h, port: port,
		addr:     net.UDPAddrFromAddrPort(netip.AddrPortFrom(h.IPv4(), port)),
		cDropped: p.sched.Telemetry.Registry.Counter("vnet_udp_dropped"),
	}
	h.OpenUDP(port, func(dg stack.Datagram) {
		if pc.closed {
			return
		}
		if len(pc.waiters) > 0 {
			w := pc.waiters[0]
			pc.waiters = pc.waiters[1:]
			n := copy(w.buf, dg.Payload)
			p.grant(w.a)
			w.ch <- packetResult{n: n, addr: net.UDPAddrFromAddrPort(netip.AddrPortFrom(dg.Src, dg.SrcPort))}
			return
		}
		if len(pc.queue) >= udpQueueMax {
			pc.cDropped.Inc()
			return
		}
		pc.queue = append(pc.queue, dgram{
			payload: append([]byte(nil), dg.Payload...),
			from:    netip.AddrPortFrom(dg.Src, dg.SrcPort),
		})
	})
	return pc
}

// ReadFrom blocks until a datagram, a deadline, or Close. Oversized
// datagrams truncate into b, UDP-style.
func (pc *PacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	w := &packetWaiter{buf: b, ch: make(chan packetResult, 1), a: self()}
	pc.p.submit(func() {
		pc.p.release(w.a)
		switch {
		case len(pc.queue) > 0:
			dg := pc.queue[0]
			pc.queue = pc.queue[1:]
			n := copy(w.buf, dg.payload)
			pc.p.grant(w.a)
			w.ch <- packetResult{n: n, addr: net.UDPAddrFromAddrPort(dg.from)}
		case pc.closed:
			w.ch <- packetResult{err: &net.OpError{Op: "read", Net: "udp", Addr: pc.addr, Err: net.ErrClosed}}
		case !pc.rdeadline.IsZero() && !pc.rdeadline.After(pc.p.sched.Now()):
			if !pc.p.abortDeadline(pc.rdeadline) {
				pc.p.grant(w.a)
			}
			w.ch <- packetResult{err: &net.OpError{Op: "read", Net: "udp", Addr: pc.addr, Err: os.ErrDeadlineExceeded}}
		default:
			pc.waiters = append(pc.waiters, w)
			pc.armReadTimer()
		}
	})
	res := <-w.ch
	return res.n, res.addr, res.err
}

// WriteTo sends one datagram to addr ("ip:port" via net.Addr).
func (pc *PacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	dst, err := toAddrPort(addr)
	if err != nil {
		return 0, &net.OpError{Op: "write", Net: "udp", Addr: addr, Err: err}
	}
	var werr error
	pc.p.exec(func() {
		switch {
		case pc.closed:
			werr = &net.OpError{Op: "write", Net: "udp", Addr: addr, Err: net.ErrClosed}
		case !pc.wdeadline.IsZero() && !pc.wdeadline.After(pc.p.sched.Now()):
			werr = &net.OpError{Op: "write", Net: "udp", Addr: addr, Err: os.ErrDeadlineExceeded}
		default:
			pc.h.SendUDP(pc.port, dst.Addr(), dst.Port(), b)
		}
	})
	if werr != nil {
		return 0, werr
	}
	return len(b), nil
}

// Close unbinds the port and fails pending reads.
func (pc *PacketConn) Close() error {
	pc.p.execTerminal(func() {
		if pc.closed {
			return
		}
		pc.closed = true
		pc.h.CloseUDP(pc.port)
		pc.stopReadTimer()
		for _, w := range pc.waiters {
			w.ch <- packetResult{err: &net.OpError{Op: "read", Net: "udp", Addr: pc.addr, Err: net.ErrClosed}}
		}
		pc.waiters = nil
		pc.queue = nil
	})
	return nil
}

// LocalAddr returns the bound address.
func (pc *PacketConn) LocalAddr() net.Addr { return pc.addr }

// SetDeadline sets both deadlines on the virtual clock.
func (pc *PacketConn) SetDeadline(t time.Time) error {
	pc.p.exec(func() {
		pc.rdeadline, pc.wdeadline = t, t
		pc.applyReadDeadline()
	})
	return nil
}

// SetReadDeadline sets the read deadline on the virtual clock.
func (pc *PacketConn) SetReadDeadline(t time.Time) error {
	pc.p.exec(func() {
		pc.rdeadline = t
		pc.applyReadDeadline()
	})
	return nil
}

// SetWriteDeadline sets the write deadline on the virtual clock.
func (pc *PacketConn) SetWriteDeadline(t time.Time) error {
	pc.p.exec(func() { pc.wdeadline = t })
	return nil
}

func (pc *PacketConn) stopReadTimer() {
	if pc.rdTimer != nil {
		pc.rdTimer.Stop()
		pc.rdTimer = nil
	}
}

func (pc *PacketConn) armReadTimer() {
	pc.stopReadTimer()
	if pc.rdeadline.IsZero() || len(pc.waiters) == 0 {
		return
	}
	dl := pc.rdeadline
	pc.rdTimer = pc.p.sched.AtTagged("vnet", dl, func() {
		if pc.rdeadline != dl {
			return
		}
		pc.expireReaders()
	})
}

func (pc *PacketConn) applyReadDeadline() {
	if !pc.rdeadline.IsZero() && !pc.rdeadline.After(pc.p.sched.Now()) {
		pc.expireReaders()
		return
	}
	pc.armReadTimer()
}

// expireReaders fails pending readers with a timeout, granting compute only
// for genuine in-sim deadlines (see Pump.abortDeadline).
func (pc *PacketConn) expireReaders() {
	abort := pc.p.abortDeadline(pc.rdeadline)
	for _, w := range pc.waiters {
		if !abort {
			pc.p.grant(w.a)
		}
		w.ch <- packetResult{err: &net.OpError{Op: "read", Net: "udp", Addr: pc.addr, Err: os.ErrDeadlineExceeded}}
	}
	pc.waiters = nil
	pc.stopReadTimer()
}

// toAddrPort converts the stdlib addr types WriteTo receives. The Unmap
// matters: net.IPv4 yields 4-in-6 mapped addresses, and the stack compares
// netip.Addr values exactly.
func toAddrPort(addr net.Addr) (netip.AddrPort, error) {
	switch a := addr.(type) {
	case *net.UDPAddr:
		ap := a.AddrPort()
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
	case *net.TCPAddr:
		ap := a.AddrPort()
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
	default:
		ip, port, err := netx.SplitAddrPort(addr.String())
		if err != nil {
			return netip.AddrPort{}, err
		}
		if !ip.IsValid() {
			return netip.AddrPort{}, fmt.Errorf("address %q: missing host", addr.String())
		}
		return netip.AddrPortFrom(ip, port), nil
	}
}
