package netx

import (
	"context"
	"net"
	"time"
)

// Fabric abstracts the network a component binds to, so the same serving
// code runs against real sockets in a deployment and against the simulated
// LAN in tests. Two implementations exist: System (standard library,
// wall-clock time) and vnet.Net (virtual hosts, virtual time). Components
// that take a Fabric must use its Now for deadlines and timestamps —
// mixing time.Now into virtual-net code couples behaviour to the real
// scheduler and breaks determinism — and must start their long-lived
// loops with its Go, so a virtual net knows the loop exists before it first
// blocks.
type Fabric interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
	Listen(network, addr string) (net.Listener, error)
	ListenPacket(network, addr string) (net.PacketConn, error)
	Now() time.Time
	// Go runs fn on a new goroutine that the fabric accounts for: on a
	// virtual net the clock stays frozen from the call until fn's first
	// network operation. fn should reach one before blocking on anything
	// else.
	Go(fn func())
}

// System is the standard-library Fabric: real sockets and wall-clock time.
// The zero value is ready to use.
type System struct{}

// DialContext dials with a default net.Dialer.
func (System) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

// Listen binds a real TCP listener.
func (System) Listen(network, addr string) (net.Listener, error) {
	return net.Listen(network, addr)
}

// ListenPacket binds a real UDP socket.
func (System) ListenPacket(network, addr string) (net.PacketConn, error) {
	return net.ListenPacket(network, addr)
}

// Now returns wall-clock time.
func (System) Now() time.Time { return time.Now() }

// Go starts fn on a plain goroutine.
func (System) Go(fn func()) { go fn() }
