package vnet

import (
	"io"
	"net"
	"net/netip"
	"os"
	"syscall"
	"time"

	"iotlan/internal/obs"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

// mss is the payload carried per simulated TCP segment. Writes larger than
// one segment are chunked on the pump, each chunk a genuine frame on the LAN.
const mss = 1460

// defaultReadBuffer bounds a connection's receive buffer. A peer that keeps
// streaming at a handler that never reads eventually overflows it and the
// connection is aborted with RST, like a kernel running out of window
// patience — the simulated stack has no flow control to push back with.
const defaultReadBuffer = 1 << 20

// ioResult is what a blocked Read/Write wakes up to.
type ioResult struct {
	n   int
	err error
}

// waiter parks one goroutine's pending I/O. buf is the read destination —
// the pump copies into it before completing, so the data handoff and the
// wake are a single rendezvous.
type waiter struct {
	buf []byte
	ch  chan ioResult
	a   actor // the blocked goroutine
}

// newWaiter parks the calling goroutine's next operation.
func newWaiter(buf []byte) *waiter {
	return &waiter{buf: buf, ch: make(chan ioResult, 1), a: self()}
}

// finish completes the waiter on the pump goroutine, handing out grants
// compute tokens (1 for completions whose caller keeps running, 0 for
// terminal ones — see the package comment).
func (w *waiter) finish(p *Pump, n int, err error, grants int) {
	if grants > 0 {
		p.grant(w.a)
	}
	w.ch <- ioResult{n: n, err: err}
}

// Conn is a stream connection over the simulated stack, satisfying net.Conn
// with virtual-time deadlines. All mutable state is owned by the pump
// goroutine; methods are safe for concurrent use like stdlib conns.
type Conn struct {
	p  *Pump
	tc *stack.TCPConn

	laddr, raddr net.Addr

	// Pump-owned state below.
	rbuf      []byte
	reof      bool  // peer FIN seen (or orderly teardown done)
	rerr      error // terminal error: RST, receive overflow
	closed    bool  // local Close ran
	wclosed   bool  // local write side shut (CloseWrite or Close)
	tcGone    bool  // stack conn already torn down; tc calls would misfire
	rwaiters  []*waiter
	rdeadline time.Time
	wdeadline time.Time
	rdTimer   *sim.Timer

	// birth is set while the grant minted by Accept for this conn's serving
	// goroutine is unclaimed; the first operation on the conn claims it.
	// Whoever issues that operation — a spawned per-conn goroutine, or an
	// accept loop serving inline — is the goroutine the grant stood for. (An
	// inline server whose first operation after Accept is elsewhere, say a
	// Sleep, leaves it unclaimed and the clock waits for the stall valve.)
	birth bool

	cOverflow *obs.Counter
}

// newConn wraps an established (or connecting) stack conn. Runs on the pump.
func newConn(p *Pump, tc *stack.TCPConn, laddr, raddr netip.AddrPort) *Conn {
	c := &Conn{
		p:     p,
		tc:    tc,
		laddr: net.TCPAddrFromAddrPort(laddr),
		raddr: net.TCPAddrFromAddrPort(raddr),

		cOverflow: p.sched.Telemetry.Registry.Counter("vnet_rbuf_overflow"),
	}
	tc.HalfClose = true
	tc.OnData = func(_ *stack.TCPConn, data []byte) { c.onData(data) }
	tc.OnFin = func(*stack.TCPConn) { c.onFin() }
	tc.OnClose = func(*stack.TCPConn) { c.onClose() }
	return c
}

// claimBirth claims the conn's unclaimed birth grant, on entry of every
// operation on the conn (pump-side, after the caller's own release). The
// stall valve may have zeroed the births in between.
func (c *Conn) claimBirth() {
	if c.birth {
		c.birth = false
		if c.p.births > 0 {
			c.p.births--
		}
	}
}

// --- pump-side event handlers ---------------------------------------------

func (c *Conn) onData(data []byte) {
	if c.closed {
		return // arrived after local close: the stack teardown races our FIN
	}
	c.rbuf = append(c.rbuf, data...)
	c.deliver()
	if len(c.rbuf) > defaultReadBuffer {
		c.cOverflow.Inc()
		c.abort()
	}
}

func (c *Conn) onFin() {
	c.reof = true
	c.deliver()
}

func (c *Conn) onClose() {
	c.tcGone = true
	c.wclosed = true
	if c.tc.ClosedByRST && !c.closed {
		c.rerr = &net.OpError{Op: "read", Net: "tcp", Source: c.laddr, Addr: c.raddr, Err: syscall.ECONNRESET}
	} else {
		c.reof = true
	}
	c.deliver()
}

// abort tears the connection down with RST (receive overflow).
func (c *Conn) abort() {
	if !c.tcGone {
		c.tc.Reset()
		c.tcGone = true
	}
	c.wclosed = true
	c.rbuf = nil
	c.rerr = &net.OpError{Op: "read", Net: "tcp", Source: c.laddr, Addr: c.raddr, Err: syscall.ECONNRESET}
	c.deliver()
}

// deliver satisfies pending readers in FIFO order from the buffer, then
// flushes the rest if the stream hit its end state.
func (c *Conn) deliver() {
	for len(c.rwaiters) > 0 && len(c.rbuf) > 0 {
		w := c.popWaiter()
		n := copy(w.buf, c.rbuf)
		c.rbuf = c.rbuf[n:]
		w.finish(c.p, n, nil, 1)
	}
	if len(c.rbuf) == 0 {
		c.rbuf = nil
	}
	if c.rerr != nil || c.reof || c.closed {
		for len(c.rwaiters) > 0 {
			w := c.popWaiter()
			w.finish(c.p, 0, c.readEndError(), 0)
		}
		c.stopReadTimer()
	}
}

func (c *Conn) popWaiter() *waiter {
	w := c.rwaiters[0]
	c.rwaiters = c.rwaiters[1:]
	if len(c.rwaiters) == 0 {
		c.rwaiters = nil
	}
	return w
}

// readEndError picks the terminal error a drained reader sees.
func (c *Conn) readEndError() error {
	switch {
	case c.rerr != nil:
		return c.rerr
	case c.closed:
		return &net.OpError{Op: "read", Net: "tcp", Source: c.laddr, Addr: c.raddr, Err: net.ErrClosed}
	default:
		return io.EOF
	}
}

func (c *Conn) timeoutErr(op string) error {
	return &net.OpError{Op: op, Net: "tcp", Source: c.laddr, Addr: c.raddr, Err: os.ErrDeadlineExceeded}
}

// --- deadline machinery ----------------------------------------------------

func (c *Conn) stopReadTimer() {
	if c.rdTimer != nil {
		c.rdTimer.Stop()
		c.rdTimer = nil
	}
}

// armReadTimer (pump-side) schedules expiry for pending readers. Cheap to
// call repeatedly: it re-arms only when the deadline moved.
func (c *Conn) armReadTimer() {
	c.stopReadTimer()
	if c.rdeadline.IsZero() || len(c.rwaiters) == 0 {
		return
	}
	dl := c.rdeadline
	c.rdTimer = c.p.sched.AtTagged("vnet", dl, func() {
		if c.rdeadline != dl {
			return // moved since; the re-arm scheduled a fresh timer
		}
		c.expireReaders()
	})
}

// expireReaders fails every pending reader with a timeout. Readers timed out
// by a genuine in-sim deadline keep their compute grant — deadline-driven
// code retries or falls back, it does not die — but readers unblocked by the
// pre-epoch abort idiom are unwinding and get none.
func (c *Conn) expireReaders() {
	g := 1
	if c.p.abortDeadline(c.rdeadline) {
		g = 0
	}
	for len(c.rwaiters) > 0 {
		w := c.popWaiter()
		w.finish(c.p, 0, c.timeoutErr("read"), g)
	}
	c.stopReadTimer()
}

// --- net.Conn --------------------------------------------------------------

// Read blocks until data, EOF, a deadline, or Close.
func (c *Conn) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	w := newWaiter(b)
	c.p.submit(func() {
		c.p.release(w.a)
		c.claimBirth()
		switch {
		case len(c.rbuf) > 0:
			n := copy(w.buf, c.rbuf)
			c.rbuf = c.rbuf[n:]
			if len(c.rbuf) == 0 {
				c.rbuf = nil
			}
			w.finish(c.p, n, nil, 1)
		case c.rerr != nil, c.reof, c.closed:
			w.finish(c.p, 0, c.readEndError(), 0)
		case !c.rdeadline.IsZero() && !c.rdeadline.After(c.p.sched.Now()):
			g := 1
			if c.p.abortDeadline(c.rdeadline) {
				g = 0
			}
			w.finish(c.p, 0, c.timeoutErr("read"), g)
		default:
			c.rwaiters = append(c.rwaiters, w)
			c.armReadTimer()
		}
	})
	res := <-w.ch
	return res.n, res.err
}

// Write sends b as MSS-sized segments. Writes never block on the peer (the
// simulated stack has no send window); they fail if the write side is shut,
// the conn was reset, or the write deadline already passed.
func (c *Conn) Write(b []byte) (int, error) {
	w := newWaiter(nil)
	c.p.submit(func() {
		c.p.release(w.a)
		c.claimBirth()
		switch {
		case c.closed || c.wclosed:
			w.finish(c.p, 0, &net.OpError{Op: "write", Net: "tcp", Source: c.laddr, Addr: c.raddr, Err: net.ErrClosed}, 1)
		case c.rerr != nil:
			w.finish(c.p, 0, &net.OpError{Op: "write", Net: "tcp", Source: c.laddr, Addr: c.raddr, Err: syscall.ECONNRESET}, 1)
		case !c.wdeadline.IsZero() && !c.wdeadline.After(c.p.sched.Now()):
			g := 1
			if c.p.abortDeadline(c.wdeadline) {
				g = 0
			}
			w.finish(c.p, 0, c.timeoutErr("write"), g)
		default:
			for off := 0; off < len(b); off += mss {
				end := off + mss
				if end > len(b) {
					end = len(b)
				}
				c.tc.Send(b[off:end])
			}
			w.finish(c.p, len(b), nil, 1)
		}
	})
	res := <-w.ch
	return res.n, res.err
}

// Close shuts both directions. Unread buffered data turns the orderly FIN
// into an RST, mirroring kernel behaviour when an application closes with
// data pending — the peer learns its bytes were lost.
func (c *Conn) Close() error {
	c.p.execTerminal(func() {
		c.claimBirth()
		if c.closed {
			return
		}
		c.closed = true
		c.wclosed = true
		if !c.tcGone {
			if len(c.rbuf) > 0 {
				c.tc.Reset()
			} else {
				c.tc.Close()
			}
			c.tcGone = true
		}
		c.rbuf = nil
		c.deliver() // flush pending readers with ErrClosed
	})
	return nil
}

// CloseWrite half-closes: sends FIN, keeps the read side open. The peer's
// reads observe EOF after draining; our reads continue until its FIN.
func (c *Conn) CloseWrite() error {
	var err error
	c.p.exec(func() {
		c.claimBirth()
		if c.closed || c.wclosed {
			err = &net.OpError{Op: "close", Net: "tcp", Source: c.laddr, Addr: c.raddr, Err: net.ErrClosed}
			return
		}
		c.wclosed = true
		if !c.tcGone {
			c.tc.CloseWrite()
		}
	})
	return err
}

// LocalAddr returns the local address.
func (c *Conn) LocalAddr() net.Addr { return c.laddr }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.raddr }

// SetDeadline sets both read and write deadlines, interpreted on the
// virtual clock. A zero time clears; a past time (http's aLongTimeAgo abort
// idiom) expires pending and future I/O immediately.
func (c *Conn) SetDeadline(t time.Time) error {
	c.p.exec(func() {
		c.claimBirth()
		c.rdeadline, c.wdeadline = t, t
		c.applyReadDeadline()
	})
	return nil
}

// SetReadDeadline sets the read deadline on the virtual clock.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.p.exec(func() {
		c.claimBirth()
		c.rdeadline = t
		c.applyReadDeadline()
	})
	return nil
}

// SetWriteDeadline sets the write deadline on the virtual clock.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.p.exec(func() {
		c.claimBirth()
		c.wdeadline = t
	})
	return nil
}

// applyReadDeadline (pump-side) re-arms or immediately expires pending
// readers after a deadline change.
func (c *Conn) applyReadDeadline() {
	if !c.rdeadline.IsZero() && !c.rdeadline.After(c.p.sched.Now()) {
		c.expireReaders()
		return
	}
	c.armReadTimer()
}
