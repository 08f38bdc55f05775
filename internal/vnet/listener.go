package vnet

import (
	"net"
	"net/netip"

	"iotlan/internal/stack"
)

// backlogMax bounds completed-but-unaccepted connections, like a kernel
// listen backlog. Past it new handshakes are answered with RST.
const backlogMax = 64

type acceptResult struct {
	c   *Conn
	err error
}

type acceptWaiter struct {
	ch chan acceptResult
	a  actor
}

// accepted completes an Accept with a connection. It grants twice: the
// accept loop resumes, and the connection's birth grant covers the
// goroutine a server spawns to serve it, up to its first operation on the
// connection (see Conn.birth).
func (l *Listener) accepted(w *acceptWaiter, c *Conn) {
	l.p.grant(w.a)
	c.birth = true
	l.p.births++
	w.ch <- acceptResult{c: c}
}

// Listener accepts stream connections on a host port, satisfying
// net.Listener.
type Listener struct {
	p    *Pump
	h    *stack.Host
	port uint16
	addr net.Addr

	// Pump-owned state below.
	backlog  []*Conn
	awaiters []*acceptWaiter
	closed   bool
}

// newListener binds the port. Runs on the pump.
func newListener(p *Pump, h *stack.Host, port uint16) *Listener {
	l := &Listener{
		p: p, h: h, port: port,
		addr: net.TCPAddrFromAddrPort(netip.AddrPortFrom(h.IPv4(), port)),
	}
	cBacklog := p.sched.Telemetry.Registry.Counter("vnet_backlog_reset")
	h.ListenTCP(port, func(tc *stack.TCPConn) {
		if l.closed {
			tc.Reset()
			return
		}
		remote, rport := tc.Remote()
		c := newConn(p, tc, netip.AddrPortFrom(h.IPv4(), port), netip.AddrPortFrom(remote, rport))
		if len(l.awaiters) > 0 {
			w := l.awaiters[0]
			l.awaiters = l.awaiters[1:]
			l.accepted(w, c)
			return
		}
		if len(l.backlog) >= backlogMax {
			cBacklog.Inc()
			tc.Reset()
			return
		}
		l.backlog = append(l.backlog, c)
	})
	return l
}

// Accept blocks until a handshake completes or the listener closes.
func (l *Listener) Accept() (net.Conn, error) {
	w := &acceptWaiter{ch: make(chan acceptResult, 1), a: self()}
	l.p.submit(func() {
		l.p.release(w.a)
		switch {
		case len(l.backlog) > 0:
			c := l.backlog[0]
			l.backlog = l.backlog[1:]
			l.accepted(w, c)
		case l.closed:
			w.ch <- acceptResult{err: &net.OpError{Op: "accept", Net: "tcp", Addr: l.addr, Err: net.ErrClosed}}
		default:
			l.awaiters = append(l.awaiters, w)
		}
	})
	res := <-w.ch
	if res.err != nil {
		return nil, res.err
	}
	return res.c, nil
}

// Close unbinds the port. Pending and future Accepts fail with ErrClosed;
// backlogged connections are reset.
func (l *Listener) Close() error {
	l.p.execTerminal(func() {
		if l.closed {
			return
		}
		l.closed = true
		l.h.CloseTCP(l.port)
		for _, c := range l.backlog {
			if !c.tcGone {
				c.tc.Reset()
				c.tcGone = true
			}
		}
		l.backlog = nil
		for _, w := range l.awaiters {
			w.ch <- acceptResult{err: &net.OpError{Op: "accept", Net: "tcp", Addr: l.addr, Err: net.ErrClosed}}
		}
		l.awaiters = nil
	})
	return nil
}

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.addr }
