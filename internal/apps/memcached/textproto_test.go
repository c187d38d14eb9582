package memcached

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// The text-protocol mirror of protocol_edge_test.go: the same fakeConn +
// protoHarness machinery drives the real serverConn state machine, so
// reassembly (every-byte-offset splits), error recovery (CLIENT_ERROR
// without killing the connection), noreply suppression, and the
// binary/text parity invariant all run at unit speed.

func TestTextSetGetDeleteByteExact(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, []byte(
			"set k 7 0 5\r\nhello\r\n"+
				"get k\r\n"+
				"gets k\r\n"+
				"delete k\r\n"+
				"delete k\r\n"+
				"get k\r\n"))
		want := "STORED\r\n" +
			"VALUE k 7 5\r\nhello\r\nEND\r\n" +
			"VALUE k 7 5 1\r\nhello\r\nEND\r\n" +
			"DELETED\r\n" +
			"NOT_FOUND\r\n" +
			"END\r\n"
		if string(fc.out) != want {
			t.Fatalf("session output:\n got %q\nwant %q", fc.out, want)
		}
		if fc.closed {
			t.Fatal("connection closed during a clean session")
		}
	})
}

func TestTextMultiKeyGet(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		srv.Store.Set("a", &Entry{Value: []byte("1"), Flags: 10})
		srv.Store.Set("c", &Entry{Value: []byte("333"), Flags: 30})
		_, fc := feed(c, srv, []byte("get a b c\r\n"))
		want := "VALUE a 10 1\r\n1\r\nVALUE c 30 3\r\n333\r\nEND\r\n"
		if string(fc.out) != want {
			t.Fatalf("multi-key get:\n got %q\nwant %q", fc.out, want)
		}
	})
}

func TestTextNoreplySemantics(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		srv.Store.Set("taken", &Entry{Value: []byte("v")})
		_, fc := feed(c, srv, []byte(
			"set sk 0 0 2 noreply\r\nsv\r\n"+ // success: silent
				"add taken 0 0 1 noreply\r\nx\r\n"+ // NOT_STORED: silent too
				"delete sk noreply\r\n"+ // DELETED: silent
				"delete sk noreply\r\n"+ // NOT_FOUND: silent
				"version\r\n"))
		if want := "VERSION " + TextVersionString + "\r\n"; string(fc.out) != want {
			t.Fatalf("noreply leaked responses: %q", fc.out)
		}
		if _, ok := srv.Store.Get("sk"); ok {
			t.Fatal("noreply delete not applied")
		}
		if e, _ := srv.Store.Get("taken"); string(e.Value) != "v" {
			t.Fatal("noreply add clobbered existing entry")
		}
	})
}

func TestTextMalformedLinesSurviveConnection(t *testing.T) {
	// Every malformed input answers an error line and the connection
	// keeps working - the next well-formed command succeeds.
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{
			name:  "unknown command",
			input: "bogus\r\nversion\r\n",
			want:  "ERROR\r\nVERSION " + TextVersionString + "\r\n",
		},
		{
			name:  "empty line",
			input: "\r\nversion\r\n",
			want:  "ERROR\r\nVERSION " + TextVersionString + "\r\n",
		},
		{
			name:  "get without keys",
			input: "get\r\nversion\r\n",
			want:  "ERROR\r\nVERSION " + TextVersionString + "\r\n",
		},
		{
			name: "set with unparseable bytes",
			// No data block can follow (length unknown), so the parser
			// stays in line mode.
			input: "set k 0 0 abc\r\nversion\r\n",
			want:  "CLIENT_ERROR bad command line format\r\nVERSION " + TextVersionString + "\r\n",
		},
		{
			name: "set with bad flags swallows announced block",
			// <bytes> parsed, so the 5-byte block + CRLF is discarded and
			// the stream resynchronizes at the next command.
			input: "set k zz 0 5\r\nhello\r\nversion\r\n",
			want:  "CLIENT_ERROR bad command line format\r\nVERSION " + TextVersionString + "\r\n",
		},
		{
			name: "set with bad flags and zero bytes swallows the empty block",
			// need == 0 still announces a block (its bare CRLF); it must be
			// swallowed too, or it would echo a spurious second ERROR.
			input: "set k zz 0 0\r\n\r\nversion\r\n",
			want:  "CLIENT_ERROR bad command line format\r\nVERSION " + TextVersionString + "\r\n",
		},
		{
			name:  "set with missing arguments",
			input: "set k 0 0\r\nversion\r\n",
			want:  "CLIENT_ERROR bad command line format\r\nVERSION " + TextVersionString + "\r\n",
		},
		{
			name:  "delete with trailing junk",
			input: "delete k extra\r\nversion\r\n",
			want:  "CLIENT_ERROR bad command line format\r\nVERSION " + TextVersionString + "\r\n",
		},
		{
			name:  "bad data chunk terminator",
			input: "set k 0 0 5\r\nhelloXXversion\r\n",
			want:  "CLIENT_ERROR bad data chunk\r\nVERSION " + TextVersionString + "\r\n",
		},
		{
			name:  "oversized key",
			input: "get " + strings.Repeat("k", MaxTextKey+1) + "\r\nversion\r\n",
			want:  "CLIENT_ERROR bad command line format\r\nVERSION " + TextVersionString + "\r\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			protoHarness(t, func(c *event.Ctx) {
				srv := NewServer(NewRCUStore(), 1)
				_, fc := feed(c, srv, []byte(tc.input))
				if string(fc.out) != tc.want {
					t.Fatalf("output:\n got %q\nwant %q", fc.out, tc.want)
				}
				if fc.closed {
					t.Fatal("malformed input killed the connection")
				}
			})
		})
	}
}

func TestTextBadDataChunkDoesNotStore(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		feed(c, srv, []byte("set k 0 0 5\r\nhelloXX"))
		if _, ok := srv.Store.Get("k"); ok {
			t.Fatal("value stored despite bad terminator")
		}
	})
}

func TestTextOversizedLineAnsweredOnceAndSwallowed(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		// An unterminated line beyond MaxTextLine: one CLIENT_ERROR, then
		// everything through the eventual newline is discarded and the
		// connection resumes.
		long := "get " + strings.Repeat("x", 2*MaxTextLine)
		sc, fc := feed(c, srv, []byte(long))
		if string(fc.out) != respBadLine {
			t.Fatalf("oversized line answered %q", fc.out)
		}
		sc.onData(c, fc, iobuf.Wrap([]byte(strings.Repeat("y", 100)+"\r\nversion\r\n")))
		want := respBadLine + "VERSION " + TextVersionString + "\r\n"
		if string(fc.out) != want {
			t.Fatalf("after swallow:\n got %q\nwant %q", fc.out, want)
		}
		if fc.closed {
			t.Fatal("oversized line killed the connection")
		}
	})
}

// TestTextMaxLengthLineAcceptedAcrossSplits: a command line of exactly
// MaxTextLine bytes is legal and must parse identically however the
// stream is segmented - including the adversarial split after its CR,
// which leaves MaxTextLine+1 unterminated bytes in the buffer.
func TestTextMaxLengthLineAcceptedAcrossSplits(t *testing.T) {
	line := "get"
	for len(line)+11 <= MaxTextLine-10 {
		line += " " + strings.Repeat("k", 10)
	}
	line += " " + strings.Repeat("k", MaxTextLine-len(line)-1)
	if len(line) != MaxTextLine {
		t.Fatalf("constructed line is %d bytes, want %d", len(line), MaxTextLine)
	}
	frame := line + "\r\nversion\r\n"
	want := respEnd + "VERSION " + TextVersionString + "\r\n"
	for _, cut := range []int{MaxTextLine - 1, MaxTextLine, MaxTextLine + 1} {
		protoHarness(t, func(c *event.Ctx) {
			srv := NewServer(NewRCUStore(), 1)
			_, fc := feed(c, srv, []byte(frame[:cut]), []byte(frame[cut:]))
			if string(fc.out) != want {
				t.Fatalf("cut=%d:\n got %q\nwant %q", cut, fc.out, want)
			}
		})
	}
}

// TestTextOversizedStorageLineSwallowsBlock: a complete storage command
// line over MaxTextLine still swallows its announced data block, so the
// block's bytes do not surface as spurious command lines.
func TestTextOversizedStorageLineSwallowsBlock(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		long := "set k 0 0 5 " + strings.Repeat("x", MaxTextLine) + "\r\nhello\r\nversion\r\n"
		_, fc := feed(c, srv, []byte(long))
		want := respBadLine + "VERSION " + TextVersionString + "\r\n"
		if string(fc.out) != want {
			t.Fatalf("oversized storage line:\n got %q\nwant %q", fc.out, want)
		}
		if srv.Store.Len() != 0 {
			t.Fatal("oversized storage line stored a value")
		}
	})
}

func TestTextOversizedValueSwallowedWithoutBuffering(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		need := MaxTextValue + 1
		sc, fc := feed(c, srv, []byte("set big 0 0 "+itoa(need)+"\r\n"))
		if string(fc.out) != respTooLarge {
			t.Fatalf("oversized value answered %q", fc.out)
		}
		// Deliver the announced block in chunks; the parser must not
		// accumulate it (rx stays bounded) and must resync after it.
		chunk := bytes.Repeat([]byte("z"), 64<<10)
		sent := 0
		for sent < need {
			n := need - sent
			if n > len(chunk) {
				n = len(chunk)
			}
			sc.onData(c, fc, iobuf.Wrap(chunk[:n]))
			if sc.rx.Len() > 4096 {
				t.Fatalf("parser buffered %d bytes of a refused value", sc.rx.Len())
			}
			sent += n
		}
		sc.onData(c, fc, iobuf.Wrap([]byte("\r\nversion\r\n")))
		want := respTooLarge + "VERSION " + TextVersionString + "\r\n"
		if string(fc.out) != want {
			t.Fatalf("after swallow:\n got %q\nwant %q", fc.out, want)
		}
		if srv.Store.Len() != 0 {
			t.Fatal("oversized value stored")
		}
	})
}

// TestTextAbsurdBytesDoesNotCrash: a <bytes> value near MaxInt64 must
// not overflow the swallow arithmetic (need+2 wrapping negative once
// drove the parser's index negative and panicked). No block that large
// is skipped; the connection answers and survives.
func TestTextAbsurdBytesDoesNotCrash(t *testing.T) {
	for _, n := range []string{"9223372036854775807", "9223372036854775806", "99999999999"} {
		protoHarness(t, func(c *event.Ctx) {
			srv := NewServer(NewRCUStore(), 1)
			_, fc := feed(c, srv, []byte("set k 0 0 "+n+"\r\nversion\r\n"))
			want := respTooLarge + "VERSION " + TextVersionString + "\r\n"
			if string(fc.out) != want {
				t.Fatalf("bytes=%s:\n got %q\nwant %q", n, fc.out, want)
			}
			if fc.closed {
				t.Fatalf("bytes=%s killed the connection", n)
			}
		})
	}
}

func TestTextQuitClosesConnection(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		sc, fc := feed(c, srv, []byte("set k 0 0 1\r\nv\r\nquit\r\nget k\r\n"))
		if !fc.closed {
			t.Fatal("quit did not close the connection")
		}
		if string(fc.out) != respStored {
			t.Fatalf("output %q; nothing after quit should be served", fc.out)
		}
		// Data arriving after the close must be ignored.
		sc.onData(c, fc, iobuf.Wrap([]byte("get k\r\n")))
		if string(fc.out) != respStored {
			t.Fatalf("post-quit data served: %q", fc.out)
		}
	})
}

func TestTextSplitAtEveryOffset(t *testing.T) {
	// A pipelined text frame - storage, retrieval, noreply, errors, data
	// blocks - must produce byte-identical output no matter where the
	// stream is split in two.
	frame := []byte(
		"set alpha 7 0 5\r\nhello\r\n" +
			"set beta 0 0 3 noreply\r\nxyz\r\n" +
			"get alpha beta\r\n" +
			"gets alpha\r\n" +
			"bogus\r\n" +
			"add alpha 0 0 2\r\nno\r\n" +
			"replace gamma 0 0 2\r\nno\r\n" +
			"delete beta\r\n" +
			"get beta\r\n" +
			"version\r\n")

	// One harness serves the whole sweep: each cut gets a fresh server
	// and connection, which is all the parser state there is.
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, frame)
		want := append([]byte(nil), fc.out...)
		wantReqs := srv.Requests
		if !bytes.Contains(want, []byte("VALUE alpha 7 5\r\nhello\r\nVALUE beta 0 3\r\nxyz\r\nEND\r\n")) {
			t.Fatalf("reference output unexpected: %q", want)
		}

		// Each cut arrives both ways: as two deliveries, and as one
		// delivery of a two-element chain.
		for cut := 1; cut < len(frame); cut++ {
			for name, deliver := range map[string]func(*event.Ctx, *Server, ...[]byte) (*serverConn, *fakeConn){"flat": feed, "chain": feedChain} {
				srv := NewServer(NewRCUStore(), 1)
				_, fc := deliver(c, srv, frame[:cut], frame[cut:])
				if !bytes.Equal(fc.out, want) {
					t.Fatalf("cut=%d %s: output diverged:\n got %q\nwant %q", cut, name, fc.out, want)
				}
				if srv.Requests != wantReqs {
					t.Fatalf("cut=%d %s: served %d requests, want %d", cut, name, srv.Requests, wantReqs)
				}
			}
		}
	})
}

func TestTextByteAtATime(t *testing.T) {
	frame := []byte("set k 3 0 5\r\nworld\r\nget k\r\ndelete k\r\n")
	var want []byte
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, frame)
		want = append([]byte(nil), fc.out...)
	})
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		sc := &serverConn{srv: srv}
		fc := &fakeConn{}
		for _, b := range frame {
			sc.onData(c, fc, iobuf.Wrap([]byte{b}))
		}
		if !bytes.Equal(fc.out, want) {
			t.Fatalf("byte-at-a-time output diverged:\n got %q\nwant %q", fc.out, want)
		}
	})
}

// TestProtocolAutoDetection: two connections to the same server commit
// to different protocols from their first byte, and both are served.
func TestProtocolAutoDetection(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		srv.Store.Set("k", &Entry{Value: []byte("v"), Flags: 5})

		_, binFC := feed(c, srv, BuildGet([]byte("k"), 1))
		hdrs, bodies := parseResponses(t, binFC.out)
		if len(hdrs) != 1 || hdrs[0].Status != StatusOK || string(bodies[0][GetResponseExtrasLen:]) != "v" {
			t.Fatalf("binary connection misparsed: %+v", hdrs)
		}

		_, txtFC := feed(c, srv, []byte("get k\r\n"))
		if want := "VALUE k 5 1\r\nv\r\nEND\r\n"; string(txtFC.out) != want {
			t.Fatalf("text connection: got %q, want %q", txtFC.out, want)
		}
	})
}

func TestTextGetsCASAdvances(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, []byte(
			"set k 0 0 2\r\nv1\r\ngets k\r\nset k 0 0 2\r\nv2\r\ngets k\r\n"))
		want := "STORED\r\nVALUE k 0 2 1\r\nv1\r\nEND\r\n" +
			"STORED\r\nVALUE k 0 2 2\r\nv2\r\nEND\r\n"
		if string(fc.out) != want {
			t.Fatalf("gets CAS sequence:\n got %q\nwant %q", fc.out, want)
		}
	})
}

// TestTextSessionOverNetwork runs the byte-exactness check end-to-end:
// a text-mode client against a live server over the simulated testbed
// network, including a noreply round.
func TestTextSessionOverNetwork(t *testing.T) {
	pair := testbed.NewPair(testbed.EbbRT, 1, 2)
	srv := NewServer(NewRCUStore(), 1)
	if err := srv.Serve(pair.Server); err != nil {
		t.Fatal(err)
	}
	var responses []byte
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		pair.Client.Dial(c, testbed.ServerIP, Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				responses = append(responses, payload.CopyOut()...)
			},
		}, func(c *event.Ctx, conn appnet.Conn) {
			conn.Send(c, iobuf.Wrap([]byte(
				"set net:key 42 0 9\r\nnet-value\r\n"+
					"set net:quiet 0 0 2 noreply\r\nhi\r\n"+
					"get net:key net:quiet\r\n"+
					"delete net:quiet\r\n"+
					"get net:quiet\r\n")))
		})
	})
	pair.K.RunUntil(100 * sim.Millisecond)

	want := "STORED\r\n" +
		"VALUE net:key 42 9\r\nnet-value\r\nVALUE net:quiet 0 2\r\nhi\r\nEND\r\n" +
		"DELETED\r\n" +
		"END\r\n"
	if string(responses) != want {
		t.Fatalf("network session:\n got %q\nwant %q", responses, want)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
