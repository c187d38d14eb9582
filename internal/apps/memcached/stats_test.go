package memcached

import (
	"strings"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/mem"
)

// The stats surface tests: byte-exact golden transcripts in the text
// protocol (including the every-offset split sweep), binary STAT
// multi-response framing with the empty-key terminator, text/binary
// parity, and the items/slabs groups against a bounded store that has
// really evicted.

// generalStatsGolden is the full `stats` transcript for a server that
// has processed: one set (k=hello), one get hit, one get miss, one
// delete miss — all at sim time < 1s over an unconnected (fed) conn.
const generalStatsGolden = "STAT pid 1\r\n" +
	"STAT uptime 0\r\n" +
	"STAT time 0\r\n" +
	"STAT version " + TextVersionString + "\r\n" +
	"STAT pointer_size 64\r\n" +
	"STAT curr_connections 0\r\n" +
	"STAT total_connections 0\r\n" +
	"STAT cmd_get 2\r\n" +
	"STAT cmd_set 1\r\n" +
	"STAT cmd_flush 0\r\n" +
	"STAT cmd_touch 0\r\n" +
	"STAT get_hits 1\r\n" +
	"STAT get_misses 1\r\n" +
	"STAT get_expired 0\r\n" +
	"STAT delete_misses 1\r\n" +
	"STAT delete_hits 0\r\n" +
	"STAT incr_misses 0\r\n" +
	"STAT incr_hits 0\r\n" +
	"STAT decr_misses 0\r\n" +
	"STAT decr_hits 0\r\n" +
	"STAT touch_hits 0\r\n" +
	"STAT touch_misses 0\r\n" +
	"STAT curr_items 1\r\n" +
	"STAT total_items 1\r\n" +
	"STAT bytes 62\r\n" + // len("k") + len("hello") + 56 overhead
	"STAT evictions 0\r\n" +
	"STAT reclaimed 0\r\n" +
	"STAT limit_maxbytes 0\r\n" +
	"STAT threads 1\r\n" +
	"END\r\n"

func TestTextStatsByteExact(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, []byte(
			"set k 0 0 5\r\nhello\r\n"+
				"get k\r\n"+
				"get missing\r\n"+
				"delete nope\r\n"+
				"stats\r\n"))
		want := "STORED\r\n" +
			"VALUE k 0 5\r\nhello\r\nEND\r\n" +
			"END\r\n" +
			"NOT_FOUND\r\n" +
			generalStatsGolden
		if string(fc.out) != want {
			t.Fatalf("stats session:\n got %q\nwant %q", fc.out, want)
		}
		if fc.closed {
			t.Fatal("connection closed during a stats session")
		}
	})
}

// TestTextStatsSplitSweep re-runs the same session with the byte stream
// cut at every offset: reassembly must never corrupt or duplicate the
// multi-line stats response.
func TestTextStatsSplitSweep(t *testing.T) {
	session := []byte("set k 0 0 5\r\nhello\r\n" +
		"get k\r\nget missing\r\ndelete nope\r\nstats\r\n")
	want := "STORED\r\n" +
		"VALUE k 0 5\r\nhello\r\nEND\r\n" +
		"END\r\nNOT_FOUND\r\n" + generalStatsGolden
	for cut := 1; cut < len(session); cut++ {
		cut := cut
		protoHarness(t, func(c *event.Ctx) {
			srv := NewServer(NewRCUStore(), 1)
			_, fc := feed(c, srv, session[:cut], session[cut:])
			if string(fc.out) != want {
				t.Fatalf("cut=%d:\n got %q\nwant %q", cut, fc.out, want)
			}
		})
	}
}

func TestTextStatsErrors(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, []byte(
			"stats bogus\r\n"+ // unknown group
				"stats items extra\r\n"+ // too many tokens
				"version\r\n")) // connection survives
		want := "ERROR\r\nERROR\r\nVERSION " + TextVersionString + "\r\n"
		if string(fc.out) != want {
			t.Fatalf("stats errors:\n got %q\nwant %q", fc.out, want)
		}
	})
}

// statPairs decodes a binary STAT response stream into name/value pairs,
// asserting the per-packet framing and the empty terminator.
func statPairs(t *testing.T, raw []byte, opaque uint32) []statLine {
	t.Helper()
	hdrs, bodies := parseResponses(t, raw)
	if len(hdrs) == 0 {
		t.Fatal("no STAT responses")
	}
	var pairs []statLine
	for i, h := range hdrs {
		if h.Opcode != OpStat || h.Status != StatusOK || h.Opaque != opaque || h.ExtrasLen != 0 {
			t.Fatalf("packet %d framing: %+v", i, h)
		}
		last := i == len(hdrs)-1
		if last {
			if h.KeyLen != 0 || h.BodyLen != 0 {
				t.Fatalf("final packet is not the empty terminator: %+v", h)
			}
			break
		}
		if h.KeyLen == 0 {
			t.Fatalf("empty-key packet %d before the end of the stream", i)
		}
		body := bodies[i]
		pairs = append(pairs, statLine{
			name:  string(body[:h.KeyLen]),
			value: string(body[h.KeyLen:]),
		})
	}
	return pairs
}

func TestBinaryStatFraming(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		// Same traffic as the text golden, via the binary protocol.
		_, fc := feed(c, srv,
			BuildSet([]byte("k"), []byte("hello"), 0, 1),
			BuildGet([]byte("k"), 2),
			BuildGet([]byte("missing"), 3),
			Request{Opcode: OpDelete, Key: []byte("nope")}.Build(4),
			Request{Opcode: OpStat}.Build(0x99))
		hdrs, _ := parseResponses(t, fc.out)
		// set + get + miss + delete-miss, then the STAT packets.
		raw := fc.out
		for i := 0; i < 4; i++ {
			raw = raw[HeaderLen+int(hdrs[i].BodyLen):]
		}
		pairs := statPairs(t, raw, 0x99)
		byName := map[string]string{}
		for _, p := range pairs {
			byName[p.name] = p.value
		}
		for name, want := range map[string]string{
			"cmd_get": "2", "cmd_set": "1",
			"get_hits": "1", "get_misses": "1",
			"delete_misses": "1", "curr_items": "1",
			"total_items": "1", "bytes": "62",
		} {
			if byName[name] != want {
				t.Errorf("STAT %s = %q, want %q", name, byName[name], want)
			}
		}
	})
}

// TestStatsTextBinaryParity renders the general group both ways on
// identically-prepared servers and requires identical name/value pairs.
func TestStatsTextBinaryParity(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		prep := func() *Server {
			srv := NewServer(NewRCUStore(), 2)
			srv.Store.Set("a", &Entry{Value: []byte("12345")})
			srv.Store.Set("b", &Entry{Value: []byte("6789")})
			return srv
		}
		_, tfc := feed(c, prep(), []byte("stats\r\n"))
		_, bfc := feed(c, prep(), Request{Opcode: OpStat}.Build(7))
		pairs := statPairs(t, bfc.out, 7)
		var text strings.Builder
		for _, p := range pairs {
			text.WriteString("STAT " + p.name + " " + p.value + "\r\n")
		}
		text.WriteString("END\r\n")
		if got := string(tfc.out); got != text.String() {
			t.Fatalf("text and binary stats disagree:\n text   %q\n binary %q", got, text.String())
		}
	})
}

func TestBinaryStatUnknownGroup(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, Request{Opcode: OpStat, Key: []byte("bogus")}.Build(5))
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 1 || hdrs[0].Status != StatusKeyNotFound || hdrs[0].Opaque != 5 {
			t.Fatalf("unknown group: %+v", hdrs)
		}
	})
}

// TestStatsItemsSlabsUnboundedEmpty pins the empty-group shape for
// stores with no slab classes.
func TestStatsItemsSlabsUnboundedEmpty(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, []byte("stats items\r\nstats slabs\r\n"))
		if want := "END\r\nEND\r\n"; string(fc.out) != want {
			t.Fatalf("unbounded items/slabs:\n got %q\nwant %q", fc.out, want)
		}
		_, bfc := feed(c, srv, Request{Opcode: OpStat, Key: []byte("items")}.Build(1))
		hdrs, _ := parseResponses(t, bfc.out)
		if len(hdrs) != 1 || hdrs[0].KeyLen != 0 || hdrs[0].BodyLen != 0 {
			t.Fatalf("binary empty group should be just the terminator: %+v", hdrs)
		}
	})
}

// TestStatsItemsSlabsBounded drives a bounded store past its budget and
// checks the per-class groups byte-exactly against the store's own
// class snapshot, plus the semantic facts: one occupied class, real
// evictions reported.
func TestStatsItemsSlabsBounded(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		bs := NewBoundedStore(boundedTestBudget, EvictLRU, nil)
		srv := NewServer(bs, 1)
		fillToCapacity(t, bs)

		classes := bs.ClassStats()
		if len(classes) != 1 {
			t.Fatalf("fill landed in %d classes, want 1", len(classes))
		}
		cl := classes[0]
		if cl.ChunkSize != 1024 || cl.Evicted == 0 || cl.Items == 0 {
			t.Fatalf("class after fill: %+v", cl)
		}

		var items strings.Builder
		p := "items:" + d(cl.Id) + ":"
		items.WriteString("STAT " + p + "number " + d(cl.Items) + "\r\n")
		items.WriteString("STAT " + p + "mem_requested " + u(cl.UsedBytes) + "\r\n")
		items.WriteString("STAT " + p + "evicted " + u(cl.Evicted) + "\r\n")
		items.WriteString("STAT " + p + "expired_unfetched " + u(cl.Expired) + "\r\n")
		items.WriteString("END\r\n")
		_, fc := feed(c, srv, []byte("stats items\r\n"))
		if got := string(fc.out); got != items.String() {
			t.Fatalf("stats items:\n got %q\nwant %q", got, items.String())
		}

		var slabs strings.Builder
		sp := d(cl.Id) + ":"
		slabs.WriteString("STAT " + sp + "chunk_size " + d(cl.ChunkSize) + "\r\n")
		slabs.WriteString("STAT " + sp + "chunks_per_page " + d(mem.PageSize/cl.ChunkSize) + "\r\n")
		slabs.WriteString("STAT " + sp + "used_chunks " + d(cl.Items) + "\r\n")
		slabs.WriteString("STAT " + sp + "free_chunks " + d(cl.FreeChunks) + "\r\n")
		slabs.WriteString("STAT active_slabs 1\r\n")
		slabs.WriteString("STAT total_malloced " + u(bs.Stats().UsedBytes) + "\r\n")
		slabs.WriteString("END\r\n")
		_, sfc := feed(c, srv, []byte("stats slabs\r\n"))
		if got := string(sfc.out); got != slabs.String() {
			t.Fatalf("stats slabs:\n got %q\nwant %q", got, slabs.String())
		}

		// The general group reflects the bounded footprint.
		_, gfc := feed(c, srv, []byte("stats\r\n"))
		out := string(gfc.out)
		st := bs.Stats()
		for _, want := range []string{
			"STAT evictions " + u(st.Evictions) + "\r\n",
			"STAT limit_maxbytes " + u(st.BudgetBytes) + "\r\n",
			"STAT bytes " + u(st.ItemBytes) + "\r\n",
			"STAT curr_items " + d(st.Items) + "\r\n",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("general stats missing %q in:\n%s", want, out)
			}
		}
	})
}

// TestStatsLiveSession exercises the acceptance transcript: a real
// connection through the simulated network, so the connection counters
// move and `stats` reports them.
func TestStatsLiveSession(t *testing.T) {
	resp := serveAndExchange(t, [][]byte{
		[]byte("set k 0 0 5\r\nhello\r\nget k\r\nstats\r\n"),
	})
	out := string(resp)
	if !strings.HasPrefix(out, "STORED\r\nVALUE k 0 5\r\nhello\r\nEND\r\n") {
		t.Fatalf("live session preamble wrong: %q", out)
	}
	for _, want := range []string{
		"STAT pid 1\r\n",
		"STAT curr_connections 1\r\n",
		"STAT total_connections 1\r\n",
		"STAT cmd_get 1\r\n",
		"STAT cmd_set 1\r\n",
		"STAT get_hits 1\r\n",
		"STAT curr_items 1\r\n",
		"STAT threads 1\r\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live stats missing %q", want)
		}
	}
	if !strings.HasSuffix(out, "END\r\n") {
		t.Fatalf("live stats not END-terminated: %q", out[len(out)-32:])
	}
	// Re-parse the whole iobuf flow: responses may arrive in several
	// TCP segments but must concatenate to exactly one stats block.
	if got := strings.Count(out, "STAT pid "); got != 1 {
		t.Fatalf("stats block rendered %d times", got)
	}
}

func TestExpiredGetCountsAsExpiredAndMiss(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		srv.Store.Set("gone", &Entry{Value: []byte("v"), Expires: ExpiredImmediately})
		_, fc := feed(c, srv, []byte("get gone\r\nstats\r\n"))
		out := string(fc.out)
		if !strings.HasPrefix(out, "END\r\n") {
			t.Fatalf("expired entry served: %q", out)
		}
		for _, want := range []string{
			"STAT get_misses 1\r\n",
			"STAT get_expired 1\r\n",
			"STAT get_hits 0\r\n",
			"STAT reclaimed 1\r\n",
			"STAT curr_items 0\r\n",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("expired-get stats missing %q in:\n%s", want, out)
			}
		}
	})
}
