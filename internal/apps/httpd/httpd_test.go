package httpd_test

import (
	"bytes"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/httpd"
	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

func TestResponseExactly148Bytes(t *testing.T) {
	if len(httpd.Response) != 148 {
		t.Fatalf("response %d bytes, want 148 (paper Table 2 workload)", len(httpd.Response))
	}
	if !bytes.HasPrefix(httpd.Response, []byte("HTTP/1.1 200 OK\r\n")) {
		t.Fatal("response is not a 200")
	}
	if !bytes.Contains(httpd.Response, []byte("\r\n\r\n")) {
		t.Fatal("response missing header terminator")
	}
}

// exchange sends raw over one connection to a fresh server and returns
// what came back, and when the last of it arrived relative to the send.
func exchange(t *testing.T, raw [][]byte) (got []byte, took sim.Time) {
	t.Helper()
	pair := testbed.NewPair(testbed.EbbRT, 1, 2)
	srv := httpd.NewServer()
	if err := srv.Serve(pair.Server); err != nil {
		t.Fatal(err)
	}
	var sent sim.Time
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		pair.Client.Dial(c, testbed.ServerIP, httpd.Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				got = append(got, payload.CopyOut()...)
				took = c.Now() - sent
			},
		}, func(c *event.Ctx, conn appnet.Conn) {
			sent = c.Now()
			for _, r := range raw {
				conn.Send(c, iobuf.Wrap(r))
			}
		})
	})
	pair.K.RunUntil(100 * sim.Millisecond)
	return got, took
}

func TestServesGET(t *testing.T) {
	got, _ := exchange(t, [][]byte{httpd.Request})
	if !bytes.Equal(got, httpd.Response) {
		t.Fatalf("got %d bytes, want the canonical response", len(got))
	}
}

func TestPipelinedGETs(t *testing.T) {
	got, _ := exchange(t, [][]byte{append(append([]byte{}, httpd.Request...), httpd.Request...)})
	if len(got) != 2*len(httpd.Response) {
		t.Fatalf("pipelined: got %d bytes, want %d", len(got), 2*len(httpd.Response))
	}
}

func TestRequestSplitAcrossSegments(t *testing.T) {
	req := httpd.Request
	got, _ := exchange(t, [][]byte{req[:5], req[5:11], req[11:]})
	if !bytes.Equal(got, httpd.Response) {
		t.Fatal("fragmented request not reassembled")
	}
}

func TestNonGETClosesConnection(t *testing.T) {
	got, _ := exchange(t, [][]byte{[]byte("POST / HTTP/1.1\r\n\r\n")})
	if len(got) != 0 {
		t.Fatalf("non-GET produced %d bytes", len(got))
	}
}

// TestHandlerJitterDeterministic serves the same request on two fresh
// servers: the handler's jitter is drawn from a fixed seed, so both
// answer at the same virtual instant, and no sooner than the handler's
// own cost.
func TestHandlerJitterDeterministic(t *testing.T) {
	_, a := exchange(t, [][]byte{httpd.Request})
	_, b := exchange(t, [][]byte{httpd.Request})
	if a != b {
		t.Fatalf("the same request took %v on one server and %v on another", a, b)
	}
	if a < costs.HTTPHandlerNs {
		t.Fatalf("answered in %v, under the handler's own %v", a, costs.HTTPHandlerNs)
	}
}

// TestUnterminatedHeadClosesItsConnection: a peer that sends 64 KiB
// without ever ending its request head has that connection closed once
// the pending head passes 16 KiB, and a GET on another connection is
// still answered.
func TestUnterminatedHeadClosesItsConnection(t *testing.T) {
	pair := testbed.NewPair(testbed.EbbRT, 1, 2)
	srv := httpd.NewServer()
	if err := srv.Serve(pair.Server); err != nil {
		t.Fatal(err)
	}
	flood := append([]byte("GET / HTTP/1.1\r\nX-Endless: "), bytes.Repeat([]byte{'x'}, 64<<10)...)
	var floodGot, got []byte
	floodClosed := false
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		pair.Client.Dial(c, testbed.ServerIP, httpd.Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				floodGot = append(floodGot, payload.CopyOut()...)
			},
			OnClose: func(*event.Ctx, appnet.Conn, error) { floodClosed = true },
		}, func(c *event.Ctx, conn appnet.Conn) {
			conn.Send(c, iobuf.Wrap(flood))
		})
		pair.Client.Dial(c, testbed.ServerIP, httpd.Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				got = append(got, payload.CopyOut()...)
			},
		}, func(c *event.Ctx, conn appnet.Conn) {
			conn.Send(c, iobuf.Wrap(httpd.Request))
		})
	})
	pair.K.RunUntil(100 * sim.Millisecond)
	if !floodClosed || len(floodGot) != 0 {
		t.Fatalf("unterminated head: connection closed %v, %d bytes answered", floodClosed, len(floodGot))
	}
	if !bytes.Equal(got, httpd.Response) || srv.Requests != 1 {
		t.Fatalf("the other connection got %d bytes, %d requests served", len(got), srv.Requests)
	}
}
