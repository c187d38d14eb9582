// Package httpd is the node.js webserver workload of paper §4.3 (Table 2):
// an event-driven HTTP server answering every GET with a small static
// response totaling 148 bytes, its handler executing inside the managed
// runtime (modelled as a fixed JavaScript execution cost per request).
package httpd

import (
	"bytes"
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// handlerSeed makes the per-request jitter deterministic per server.
const handlerSeed = 0xeb

// Port is the webserver port.
const Port = 8080

// Response is the static 148-byte HTTP response the paper's webserver
// returns (headers plus a small body).
var Response = buildResponse()

func buildResponse() []byte {
	body := "Hello World\n"
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: %d\r\nConnection: keep-alive\r\nServer: ebbrt-node\r\n", len(body))
	resp := head + pad(148-len(head)-len(body)-4) + "\r\n\r\n" + body
	return []byte(resp)
}

// pad emits an X-Pad header filler so the response totals exactly 148 B.
func pad(n int) string {
	if n <= 8 {
		return ""
	}
	return "X-Pad: " + string(bytes.Repeat([]byte{'x'}, n-9)) + "\r\n"
}

// Server is the webserver instance.
type Server struct {
	// Requests counts requests served.
	Requests uint64

	rng *sim.Rng
}

// NewServer returns a server with the calibrated node.js handler cost.
func NewServer() *Server {
	return &Server{rng: sim.NewRng(handlerSeed)}
}

// handlerCost samples the per-request execution cost: V8 running the
// http-module callback, plus an exponentially distributed share for
// allocation and incremental-GC variation in the managed runtime.
func (s *Server) handlerCost() sim.Time {
	return costs.HTTPHandlerNs + sim.Time(s.rng.Exp(float64(costs.HTTPHandlerJitterMeanNs)))
}

// Serve starts the server on rt.
func (s *Server) Serve(rt appnet.Runtime) error {
	return rt.Listen(Port, func(conn appnet.Conn) appnet.Callbacks {
		hc := &httpConn{srv: s}
		hc.resp.Pool, _ = appnet.PoolsOf(conn)
		return appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				hc.onData(c, conn, payload)
			},
		}
	})
}

// maxHeadBytes caps a request head still waiting for its terminator, as
// node.js's default --max-http-header-size does: a peer that never ends
// one has its connection closed instead of growing the buffer.
const maxHeadBytes = 16 << 10

var headEnd = []byte("\r\n\r\n")

// httpConn parses pipelined GET requests off the stream and writes the
// responses into payload elements of the connection's interface.
type httpConn struct {
	srv    *Server
	rx     iobuf.Stream
	resp   iobuf.Frames
	closed bool
}

func (hc *httpConn) onData(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
	if hc.closed {
		return
	}
	data := hc.rx.Take(payload)
	consumed := 0
	for {
		idx := bytes.Index(data[consumed:], headEnd)
		if idx < 0 {
			break
		}
		req := data[consumed : consumed+idx]
		consumed += idx + len(headEnd)
		if !bytes.HasPrefix(req, []byte("GET ")) {
			hc.closed = true
			break
		}
		hc.srv.Requests++
		c.Charge(hc.srv.handlerCost())
		copy(hc.resp.Next(len(Response)), Response)
	}
	if hc.closed || len(data)-consumed > maxHeadBytes {
		// A request other than GET, or a head that never ends: drop the
		// connection and the responses written for it.
		hc.closed = true
		if out := hc.resp.Take(); out != nil {
			out.Free()
		}
		conn.Close(c)
		return
	}
	hc.rx.Keep(data, consumed, 0)
	if out := hc.resp.Take(); out != nil {
		conn.Send(c, out)
	}
}

// Request is the canonical benchmark request.
var Request = []byte("GET / HTTP/1.1\r\nHost: bench\r\n\r\n")
