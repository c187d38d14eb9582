// Package appnet defines the thin connection abstraction the example
// applications (memcached, the webserver, NetPIPE, the load generators)
// are written against, with two implementations:
//
//   - Native: EbbRT's direct stack interface. Receive callbacks run
//     synchronously from the device driver; sends go straight to the
//     stack, with the application-side buffering the paper prescribes
//     (data beyond the remote window is held by the app and drained as
//     acknowledgments arrive).
//   - GPOS (package gpos): the same protocol stack behind a general
//     purpose OS model - syscalls, user/kernel copies, softirq handoff
//     and scheduler wakeups.
//
// Writing each application once against this interface is what lets the
// benchmark harnesses compare runtimes without duplicating app logic.
package appnet

import (
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// Conn is one TCP connection as seen by an application.
type Conn interface {
	// Send queues payload for transmission. It always accepts the data;
	// the implementation is responsible for windowing/buffering. The
	// chain is moved to the connection, with one holder of each pool-born
	// element, and its bytes may be borrowed, not copied, until the peer
	// acknowledges them: the caller does not write to them again. An
	// application builds what it sends in the pools PoolsOf reports, and
	// the connection frees them when it is done.
	Send(c *event.Ctx, payload *iobuf.IOBuf)
	// Close initiates an orderly shutdown.
	Close(c *event.Ctx)
	// Core reports the core the connection is pinned to.
	Core() int
}

// Callbacks are the application's connection event handlers.
type Callbacks struct {
	// OnData delivers received payload, lent for the call (a handler that
	// blocks has not ended its call) as netstack.ConnHandler.OnReceive's
	// is: to keep it or send it on, Retain it or copy.
	OnData func(c *event.Ctx, conn Conn, payload *iobuf.IOBuf)
	// OnClose fires at full teardown; err non-nil on abnormal close.
	OnClose func(c *event.Ctx, conn Conn, err error)
}

// PoolsOf reports the pools of the interface under conn that an
// application writes what it sends into: payload elements of class MSS,
// for frames, and view descriptors, for bytes it lends (a stored value).
// Both runtimes' connections have them once connected. A connection
// without them - not yet connected, or a stand-in made by a harness -
// gives nil pools, whose Get is New and View is Wrap, so an application
// writes the same code either way.
func PoolsOf(conn Conn) (payload, views *iobuf.Pool) {
	if p, ok := conn.(interface {
		Pools() (payload, views *iobuf.Pool)
	}); ok {
		return p.Pools()
	}
	return nil, nil
}

// Runtime abstracts "an OS this app runs on" for servers and clients.
type Runtime interface {
	// Listen accepts connections on port; accept returns the callbacks
	// for each new connection.
	Listen(port uint16, accept func(conn Conn) Callbacks) error
	// Dial opens a connection and invokes onConnect when established.
	Dial(c *event.Ctx, ip netstack.Ipv4Addr, port uint16, cb Callbacks, onConnect func(c *event.Ctx, conn Conn))
	// Mgrs exposes the per-core event managers.
	Mgrs() []*event.Manager
	// Kernel exposes the simulation kernel.
	Kernel() *sim.Kernel
}

// Native is the EbbRT-native runtime: the application sits directly on the
// stack.
type Native struct {
	Stack *netstack.Stack
	Itf   *netstack.Interface
}

// NewNative wraps a configured stack interface.
func NewNative(st *netstack.Stack, itf *netstack.Interface) *Native {
	return &Native{Stack: st, Itf: itf}
}

// Mgrs implements Runtime.
func (n *Native) Mgrs() []*event.Manager { return n.Stack.Mgrs }

// Kernel implements Runtime.
func (n *Native) Kernel() *sim.Kernel { return n.Stack.M.K }

// Listen implements Runtime.
func (n *Native) Listen(port uint16, accept func(conn Conn) Callbacks) error {
	_, err := n.Itf.ListenTcp(port, func(c *event.Ctx, pcb *netstack.TcpPcb) netstack.ConnHandler {
		conn := &nativeConn{SendBuffer{Pcb: pcb}}
		cb := accept(conn)
		return conn.handler(cb)
	})
	return err
}

// Dial implements Runtime.
func (n *Native) Dial(c *event.Ctx, ip netstack.Ipv4Addr, port uint16, cb Callbacks, onConnect func(c *event.Ctx, conn Conn)) {
	conn := &nativeConn{}
	h := conn.handler(cb)
	h.OnConnected = func(c *event.Ctx, pcb *netstack.TcpPcb) {
		if onConnect != nil {
			onConnect(c, conn)
		}
	}
	pcb, err := n.Itf.ConnectTcp(c, ip, port, h)
	if err != nil {
		if cb.OnClose != nil {
			cb.OnClose(c, conn, err)
		}
		return
	}
	conn.Pcb = pcb
}

// SendBuffer is the send half of a connection over a TcpPcb, the
// application-side buffering the paper describes and both runtimes use:
// whatever fits the remote window goes out immediately, the rest is held
// - the chains themselves, cut at the window with a descriptor from the
// interface's views pool - and drained as the peer acknowledges. Close
// defers the FIN until the buffer has drained; what a closed connection
// still holds is freed.
type SendBuffer struct {
	Pcb            *netstack.TcpPcb
	Closed         bool
	pending        []*iobuf.IOBuf
	closeRequested bool
}

// Core implements Conn.
func (b *SendBuffer) Core() int {
	if b.Pcb == nil {
		return 0
	}
	return b.Pcb.Core()
}

// Pools reports the connection's interface pools (see PoolsOf), nil
// before it is connected.
func (b *SendBuffer) Pools() (payload, views *iobuf.Pool) {
	if b.Pcb == nil {
		return nil, nil
	}
	return b.Pcb.Pools()
}

// Send implements Conn.
func (b *SendBuffer) Send(c *event.Ctx, payload *iobuf.IOBuf) {
	if b.Closed || b.Pcb == nil {
		payload.Free()
		return
	}
	if len(b.pending) == 0 && payload.ComputeChainDataLength() <= b.Pcb.SendWindowRemaining() {
		if err := b.Pcb.Send(c, payload); err == nil {
			return
		}
	}
	b.pending = append(b.pending, payload)
	b.drain(c)
}

// drain pushes buffered data as the window allows.
func (b *SendBuffer) drain(c *event.Ctx) {
	if b.Closed || b.Pcb == nil {
		return
	}
	sent := 0
	for sent < len(b.pending) {
		head := b.pending[sent]
		w := b.Pcb.SendWindowRemaining()
		if w == 0 {
			break
		}
		_, views := b.Pcb.Pools()
		rest := head.Split(w, views)
		if err := b.Pcb.Send(c, head); err != nil {
			head.AppendChain(rest)
			break
		}
		if rest == nil {
			sent++
		} else {
			b.pending[sent] = rest
		}
	}
	// What is left moves to the array's front, where the next Send
	// appends behind it without allocating.
	n := copy(b.pending, b.pending[sent:])
	clear(b.pending[n:])
	b.pending = b.pending[:n]
	if n == 0 && b.closeRequested {
		b.closeRequested = false
		b.Pcb.Close(c)
	}
}

// Close implements Conn.
func (b *SendBuffer) Close(c *event.Ctx) {
	if b.Closed || b.Pcb == nil {
		return
	}
	if len(b.pending) > 0 {
		b.closeRequested = true
		return
	}
	b.Pcb.Close(c)
}

// Handler wires the buffer to its PCB's events on behalf of conn, the
// connection embedding it; onReceive is the runtime's receive path.
func (b *SendBuffer) Handler(conn Conn, cb Callbacks, onReceive func(c *event.Ctx, payload *iobuf.IOBuf)) netstack.ConnHandler {
	return netstack.ConnHandler{
		OnReceive: func(c *event.Ctx, pcb *netstack.TcpPcb, payload *iobuf.IOBuf) {
			onReceive(c, payload)
		},
		OnAcked: func(c *event.Ctx, pcb *netstack.TcpPcb, nBytes int) {
			b.drain(c)
		},
		OnWindowOpen: func(c *event.Ctx, pcb *netstack.TcpPcb) {
			b.drain(c)
		},
		OnRemoteClosed: func(c *event.Ctx, pcb *netstack.TcpPcb) {
			// The peer finished sending; once our buffered data drains,
			// complete the shutdown so both sides observe OnClose.
			conn.Close(c)
		},
		OnClosed: func(c *event.Ctx, pcb *netstack.TcpPcb, err error) {
			b.Closed = true
			for _, p := range b.pending {
				p.Free()
			}
			b.pending = nil
			if cb.OnClose != nil {
				cb.OnClose(c, conn, err)
			}
		},
	}
}

// nativeConn has nothing between the application and the stack but the
// send buffer: OnData runs from the driver, on the bytes it filled.
type nativeConn struct{ SendBuffer }

func (nc *nativeConn) handler(cb Callbacks) netstack.ConnHandler {
	return nc.Handler(nc, cb, func(c *event.Ctx, payload *iobuf.IOBuf) {
		if cb.OnData != nil {
			cb.OnData(c, nc, payload)
		}
	})
}
