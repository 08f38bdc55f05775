package vnet

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"time"

	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

// dialTimeout bounds a handshake on the virtual clock — a SYN into a
// partition must not park the dialer forever.
const dialTimeout = 30 * time.Second

// timeoutError is the dial-timeout error: a net.Error that is temporary and
// a timeout, matching what a real dialer surfaces for an unanswered SYN.
type timeoutError struct{}

func (timeoutError) Error() string   { return "i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// Net is the stdlib-shaped network facade of one simulated host. It is what
// code written against net.Dialer/net.Listen takes instead, and everything
// it returns runs over the host's userspace stack on the shared Pump.
type Net struct {
	p *Pump
	h *stack.Host

	// nextPort hands out listener ports for ":0" binds. Pump-owned.
	nextPort uint16
}

// New binds a facade to a host. The pump must be the one driving the host's
// scheduler.
func New(p *Pump, h *stack.Host) *Net {
	return &Net{p: p, h: h, nextPort: 20000}
}

// Now returns the current virtual time. Safe to call from any goroutine the
// pump is aware of (one holding a grant or blocked in a vnet op).
func (n *Net) Now() time.Time { return n.p.Now() }

// DialContext opens a TCP connection to addr ("ip:port"). Supported
// networks: "tcp", "tcp4", "tcp6". The context's cancellation is honoured;
// wall-clock context deadlines are not mapped onto the virtual clock (they
// are typically years away from it) — dialTimeout bounds the handshake on
// the virtual clock instead.
func (n *Net) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	switch network {
	case "tcp", "tcp4", "tcp6":
	default:
		return nil, &net.OpError{Op: "dial", Net: network, Err: net.UnknownNetworkError(network)}
	}
	ip, port, err := netx.SplitAddrPort(addr)
	if err != nil || !ip.IsValid() {
		return nil, &net.OpError{Op: "dial", Net: network, Err: fmt.Errorf("invalid address %q: %v", addr, err)}
	}

	w := newWaiter(nil)
	type dial struct {
		c     *Conn
		done  bool
		timer *sim.Timer
	}
	d := &dial{}
	settle := make(chan struct{}) // closed once the dial resolved (stops the ctx watcher)
	finish := func(err error, grants int) {
		if d.done {
			return
		}
		d.done = true
		if d.timer != nil {
			d.timer.Stop()
		}
		close(settle)
		w.finish(n.p, 0, err, grants)
	}
	n.p.submit(func() {
		n.p.release(w.a)
		tc := n.h.DialTCP(ip, port)
		laddr := netip.AddrPortFrom(n.h.IPv4(), tc.LocalPort())
		raddr := netip.AddrPortFrom(ip, port)
		d.c = newConn(n.p, tc, laddr, raddr)
		tc.OnConnect = func(*stack.TCPConn) { finish(nil, 1) }
		tc.OnRefused = func(*stack.TCPConn) {
			d.c.tcGone = true
			finish(&net.OpError{Op: "dial", Net: network, Addr: d.c.raddr, Err: syscall.ECONNREFUSED}, 1)
		}
		d.timer = n.p.sched.AfterTagged("vnet", dialTimeout, func() {
			if !d.c.tcGone {
				tc.Reset()
				d.c.tcGone = true
			}
			finish(&net.OpError{Op: "dial", Net: network, Addr: d.c.raddr, Err: timeoutError{}}, 1)
		})
	})
	if done := ctx.Done(); done != nil {
		go func() {
			select {
			case <-settle:
			case <-done:
				n.p.submit(func() {
					if d.done {
						return
					}
					if !d.c.tcGone {
						d.c.tc.Reset()
						d.c.tcGone = true
					}
					finish(&net.OpError{Op: "dial", Net: network, Err: ctx.Err()}, 1)
				})
			}
		}()
	}
	res := <-w.ch
	if res.err != nil {
		return nil, res.err
	}
	return d.c, nil
}

// Dial is DialContext with a background context.
func (n *Net) Dial(network, addr string) (net.Conn, error) {
	return n.DialContext(context.Background(), network, addr)
}

// Listen binds a TCP listener. addr may name the host's own IP or leave the
// host empty (":8080"); port 0 picks a free port.
func (n *Net) Listen(network, addr string) (net.Listener, error) {
	switch network {
	case "tcp", "tcp4", "tcp6":
	default:
		return nil, &net.OpError{Op: "listen", Net: network, Err: net.UnknownNetworkError(network)}
	}
	_, port, err := netx.SplitAddrPort(addr)
	if err != nil {
		return nil, &net.OpError{Op: "listen", Net: network, Err: err}
	}
	var l *Listener
	var lerr error
	n.p.exec(func() {
		if port == 0 {
			port = n.freePort()
			if port == 0 {
				lerr = &net.OpError{Op: "listen", Net: network, Err: fmt.Errorf("no free ports")}
				return
			}
		} else if n.h.TCPPortOpen(port) {
			lerr = &net.OpError{Op: "listen", Net: network, Err: syscall.EADDRINUSE}
			return
		}
		l = newListener(n.p, n.h, port)
	})
	if lerr != nil {
		return nil, lerr
	}
	return l, nil
}

// freePort (pump-side) picks an unbound TCP port for ":0" listens.
func (n *Net) freePort() uint16 {
	for i := 0; i < 65535; i++ {
		n.nextPort++
		if n.nextPort < 20000 {
			n.nextPort = 20000
		}
		if !n.h.TCPPortOpen(n.nextPort) {
			return n.nextPort
		}
	}
	return 0
}
