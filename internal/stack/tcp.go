package stack

import (
	"net/netip"
	"strconv"
	"time"

	"iotlan/internal/layers"
)

// connKey identifies a TCP connection from the local host's perspective.
type connKey struct {
	localPort  uint16
	remote     netip.Addr
	remotePort uint16
}

// TCP connection states. The simulated network never loses or reorders
// segments, so the machine omits retransmission and reassembly.
type tcpState int

const (
	stateSynSent tcpState = iota
	stateSynReceived
	stateEstablished
	stateFinWait
	stateCloseWait
	stateClosed
)

// TCPConn is one end of a simulated TCP connection.
type TCPConn struct {
	host       *Host
	key        connKey
	state      tcpState
	seq, ack   uint32
	serverSide bool

	// OnConnect fires on the client when the handshake completes.
	OnConnect func(c *TCPConn)
	// OnData fires for each inbound data segment.
	OnData func(c *TCPConn, data []byte)
	// OnClose fires when the peer closes or resets. ClosedByRST tells the
	// two apart.
	OnClose func(c *TCPConn)
	// OnRefused fires on the client when the server answers with RST.
	OnRefused func(c *TCPConn)

	// HalfClose opts in to TCP half-close semantics: a peer FIN fires OnFin
	// and leaves the conn writable (CLOSE-WAIT) instead of auto-closing, and
	// data arriving after a local CloseWrite is still delivered. The legacy
	// callback protocols (httpx, device firmware) keep the default
	// auto-close behaviour.
	HalfClose bool
	// OnFin fires when the peer half-closes (HalfClose mode only).
	OnFin func(c *TCPConn)
	// ClosedByRST records that the teardown was an inbound RST, so OnClose
	// handlers can distinguish an abort from an orderly FIN exchange.
	ClosedByRST bool

	// listenerAccept defers the accept callback until the handshake's final
	// ACK arrives.
	listenerAccept func(c *TCPConn)

	// probe, when set, marks a half-open SYN-scan probe: a SYN-ACK is
	// answered with RST and reported as open, an RST as closed.
	probe func(open bool)
}

// Remote returns the peer address and port.
func (c *TCPConn) Remote() (netip.Addr, uint16) { return c.key.remote, c.key.remotePort }

// LocalPort returns the local port.
func (c *TCPConn) LocalPort() uint16 { return c.key.localPort }

// TCPListener accepts inbound connections on a port.
type TCPListener struct {
	host *Host
	Port uint16
	// OnAccept fires when a handshake completes server-side.
	OnAccept func(c *TCPConn)
}

// ListenTCP opens a server port.
func (h *Host) ListenTCP(port uint16, onAccept func(c *TCPConn)) *TCPListener {
	l := &TCPListener{host: h, Port: port, OnAccept: onAccept}
	h.tcpL[port] = l
	return l
}

// CloseTCP stops listening on a port.
func (h *Host) CloseTCP(port uint16) { delete(h.tcpL, port) }

// TCPPortOpen reports whether a listener is bound (scan ground truth).
func (h *Host) TCPPortOpen(port uint16) bool { _, ok := h.tcpL[port]; return ok }

// TCPPorts returns all listening ports.
func (h *Host) TCPPorts() []uint16 {
	ports := make([]uint16, 0, len(h.tcpL))
	for p := range h.tcpL {
		ports = append(ports, p)
	}
	return ports
}

// OpenConnCount reports live TCP connections (leak detection in tests).
func (h *Host) OpenConnCount() int { return len(h.tcpConns) }

// UDPPorts returns all bound UDP ports.
func (h *Host) UDPPorts() []uint16 {
	ports := make([]uint16, 0, len(h.udp))
	for p := range h.udp {
		ports = append(ports, p)
	}
	return ports
}

// DialTCP starts a handshake to dst:port and returns the pending connection.
// Callbacks on the returned conn fire as the handshake progresses.
func (h *Host) DialTCP(dst netip.Addr, port uint16) *TCPConn {
	c := &TCPConn{
		host:  h,
		key:   connKey{localPort: h.ephemeralPort(), remote: dst, remotePort: port},
		state: stateSynSent,
		seq:   uint32(h.Sched.Rand().Int31()),
	}
	h.tcpConns[c.key] = c
	h.sendTCP(c, layers.TCPSyn, nil)
	c.seq++
	return c
}

// Send transmits payload as one PSH/ACK segment. A half-closed conn that
// received the peer's FIN (CLOSE-WAIT) may still send.
func (c *TCPConn) Send(payload []byte) {
	if c.state != stateEstablished && c.state != stateCloseWait {
		return
	}
	c.host.sendTCP(c, layers.TCPPsh|layers.TCPAck, payload)
	c.seq += uint32(len(payload))
}

// Close sends FIN and tears the connection down after the exchange.
func (c *TCPConn) Close() {
	switch c.state {
	case stateEstablished, stateSynReceived:
		c.state = stateFinWait
		c.host.sendTCP(c, layers.TCPFin|layers.TCPAck, nil)
		c.seq++
	case stateCloseWait:
		// Peer already half-closed; our FIN completes the teardown (the
		// peer's final ACK is implicit, as in the legacy exchange).
		c.host.sendTCP(c, layers.TCPFin|layers.TCPAck, nil)
		c.seq++
		c.state = stateClosed
		delete(c.host.tcpConns, c.key)
	default:
		delete(c.host.tcpConns, c.key)
	}
}

// CloseWrite sends FIN but keeps the receive side open (TCP half-close).
// Inbound data keeps firing OnData until the peer's own FIN arrives; further
// Sends are discarded. Meaningful with HalfClose set — without it the peer's
// stack answers our FIN with its own immediately, collapsing to Close.
func (c *TCPConn) CloseWrite() {
	switch c.state {
	case stateEstablished, stateSynReceived:
		c.state = stateFinWait
		c.host.sendTCP(c, layers.TCPFin|layers.TCPAck, nil)
		c.seq++
	case stateCloseWait:
		c.Close()
	}
}

// Reset aborts with RST (used by SYN scanners and impatient clients).
func (c *TCPConn) Reset() {
	c.host.sendTCP(c, layers.TCPRst, nil)
	c.state = stateClosed
	delete(c.host.tcpConns, c.key)
}

func (h *Host) sendTCP(c *TCPConn, flags uint8, payload []byte) {
	kind := segKind(flags, len(payload))
	h.tcp.out[kind].Inc()
	if len(payload) > 0 {
		h.tcp.bytesOut.Add(uint64(len(payload)))
	}
	if kind == segRst && h.Sched.Tracing() {
		h.Sched.TraceEvent("tcp", "rst",
			"remote", c.key.remote.String(), "port", strconv.Itoa(int(c.key.remotePort)))
	}
	v6 := c.key.remote.Is6()
	frame, seg := ipFrame(v6, layers.TCPHeaderLen+len(payload))
	copy(seg[layers.TCPHeaderLen:], payload)
	t := layers.TCP{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.seq, Ack: c.ack, Flags: flags,
	}
	t.SetAddrs(h.srcIP(v6), c.key.remote)
	t.SerializeInto(seg)
	h.sendIP(v6, c.key.remote, layers.IPProtoTCP, frame)
}

func (h *Host) handleTCP(p *layers.Packet) {
	h.tcp.in[segKind(p.TCP.Flags, len(p.AppPayload))].Inc()
	if len(p.AppPayload) > 0 {
		h.tcp.bytesIn.Add(uint64(len(p.AppPayload)))
	}
	key := connKey{localPort: p.TCP.DstPort, remote: p.SrcIP(), remotePort: p.TCP.SrcPort}
	if c, ok := h.tcpConns[key]; ok {
		h.handleTCPConn(c, p)
		return
	}
	// New SYN to a listening port?
	if p.TCP.FlagSet(layers.TCPSyn) && !p.TCP.FlagSet(layers.TCPAck) {
		if l, ok := h.tcpL[p.TCP.DstPort]; ok {
			c := &TCPConn{
				host:       h,
				key:        key,
				state:      stateSynReceived,
				seq:        uint32(h.Sched.Rand().Int31()),
				ack:        p.TCP.Seq + 1,
				serverSide: true,
			}
			h.tcpConns[key] = c
			c.listenerAccept = l.OnAccept
			h.sendTCP(c, layers.TCPSyn|layers.TCPAck, nil)
			c.seq++
			return
		}
		if h.Policy.RespondTCPRst {
			// RST the stranger: the "closed" signal SYN scans rely on.
			rst := &TCPConn{host: h, key: key, ack: p.TCP.Seq + 1}
			h.sendTCP(rst, layers.TCPRst|layers.TCPAck, nil)
		}
		return
	}
	// Stray non-SYN segment to nowhere: RST unless policy says drop.
	if !p.TCP.FlagSet(layers.TCPRst) && h.Policy.RespondTCPRst {
		rst := &TCPConn{host: h, key: key, seq: p.TCP.Ack}
		h.sendTCP(rst, layers.TCPRst, nil)
	}
}

// SynProbe launches a half-open TCP SYN scan probe. cb receives true when
// the port answers SYN-ACK (then gets RST, never completing the handshake),
// false on RST. A silent target never invokes cb — callers treat the
// timeout as "filtered".
func (h *Host) SynProbe(dst netip.Addr, port uint16, cb func(open bool)) {
	c := &TCPConn{
		host:  h,
		key:   connKey{localPort: h.ephemeralPort(), remote: dst, remotePort: port},
		state: stateSynSent,
		seq:   uint32(h.Sched.Rand().Int31()),
		probe: cb,
	}
	h.tcpConns[c.key] = c
	h.sendTCP(c, layers.TCPSyn, nil)
	c.seq++
	// Reap silent probes so the conn table doesn't grow across a 65535-port
	// sweep of a filtered host.
	key := c.key
	h.Sched.AfterTagged("stack", 3*time.Second, func() {
		if cur, ok := h.tcpConns[key]; ok && cur == c {
			delete(h.tcpConns, key)
		}
	})
}

func (h *Host) handleTCPConn(c *TCPConn, p *layers.Packet) {
	t := &p.TCP
	if c.probe != nil {
		switch {
		case t.FlagSet(layers.TCPSyn | layers.TCPAck):
			c.ack = t.Seq + 1
			h.sendTCP(c, layers.TCPRst, nil)
			delete(h.tcpConns, c.key)
			c.probe(true)
		case t.FlagSet(layers.TCPRst):
			delete(h.tcpConns, c.key)
			c.probe(false)
		}
		return
	}
	if t.FlagSet(layers.TCPRst) {
		prev := c.state
		c.state = stateClosed
		c.ClosedByRST = true
		delete(h.tcpConns, c.key)
		if prev == stateSynSent && c.OnRefused != nil {
			c.OnRefused(c)
		} else if c.OnClose != nil {
			c.OnClose(c)
		}
		return
	}
	switch c.state {
	case stateSynSent:
		if t.FlagSet(layers.TCPSyn | layers.TCPAck) {
			c.ack = t.Seq + 1
			c.state = stateEstablished
			h.tcp.handshakes.Inc()
			if h.Sched.Tracing() {
				h.Sched.TraceEvent("tcp", "handshake",
					"remote", c.key.remote.String(), "port", strconv.Itoa(int(c.key.remotePort)))
			}
			h.sendTCP(c, layers.TCPAck, nil)
			if c.OnConnect != nil {
				c.OnConnect(c)
			}
		}
	case stateSynReceived:
		if t.FlagSet(layers.TCPAck) {
			c.state = stateEstablished
			if c.listenerAccept != nil {
				c.listenerAccept(c)
			}
		}
	case stateEstablished:
		if data := p.AppPayload; len(data) > 0 {
			c.ack = t.Seq + uint32(len(data))
			h.sendTCP(c, layers.TCPAck, nil)
			if c.OnData != nil {
				c.OnData(c, data)
			}
		}
		if t.FlagSet(layers.TCPFin) {
			c.ack = t.Seq + 1
			if c.HalfClose {
				// ACK only and go CLOSE-WAIT: the app may keep sending
				// until it Closes in turn.
				h.sendTCP(c, layers.TCPAck, nil)
				c.state = stateCloseWait
				if c.OnFin != nil {
					c.OnFin(c)
				}
				return
			}
			// ACK the FIN and send our own; peer's final ACK is implicit.
			h.sendTCP(c, layers.TCPFin|layers.TCPAck, nil)
			c.state = stateClosed
			delete(h.tcpConns, c.key)
			if c.OnClose != nil {
				c.OnClose(c)
			}
		}
	case stateCloseWait:
		// Peer half-closed: nothing but ACKs of our sends arrive here.
	case stateFinWait:
		if data := p.AppPayload; len(data) > 0 && c.HalfClose {
			// We half-closed; the peer may still stream data at us.
			c.ack = t.Seq + uint32(len(data))
			h.sendTCP(c, layers.TCPAck, nil)
			if c.OnData != nil {
				c.OnData(c, data)
			}
		}
		if t.FlagSet(layers.TCPFin) {
			c.ack = t.Seq + 1
			h.sendTCP(c, layers.TCPAck, nil)
			c.state = stateClosed
			delete(h.tcpConns, c.key)
			if c.OnClose != nil {
				c.OnClose(c)
			}
		}
	}
}
