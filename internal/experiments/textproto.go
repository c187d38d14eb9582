package experiments

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// Text vs binary: the same sharded cluster and ETC load driven twice, once
// over the binary protocol and once over the ASCII text protocol. The
// two runs differ only in the wire format - the arrival process, key
// routing, connection pools, and backends are identical - so the gap
// between the curves is the text path's cost: per-byte command-line
// tokenization at the server (costs.MemcachedTextParseNsPerByte) and the
// larger, line-framed responses. The ROADMAP's motivation for speaking
// text at all is compatibility (stock clients and benchmarks), so the
// experiment's question is what that compatibility costs at cluster
// scale.

// specTextProto prints a scripted ASCII session, then drives the same
// sharded cluster and ETC load twice per backend count - once over the
// binary protocol and once over text, each against a fresh cluster so
// neither run sees the other's store mutations or queue state. Full
// runs 1/2/4 backends at 200k RPS per backend for 120ms; Smoke 1/2
// backends at 20k RPS per backend for 60ms. Both protocols must serve
// at least 90 % of the offered load, and text must keep at least half of
// binary's throughput: the per-byte tokenization cost must not halve it.
func specTextProto(s Scale, _ *audit.Log) Report {
	perBackend := pick(s, 20000.0, 200000)
	text := fmt.Sprintf("%-9s %10s %12s %12s %9s %10s %10s\n",
		"Backends", "Offered", "Binary", "Text", "Text/Bin", "Bin p99", "Text p99")
	var rep Report
	for _, n := range pick(s, []int{1, 2}, []int{1, 2, 4}) {
		cfg := load.DefaultMutilate(perBackend * float64(n))
		cfg.Connections = connsPerBackend
		cfg.Duration = pick(s, 60*sim.Millisecond, 120*sim.Millisecond)
		cl, gen, shards := newShardedTarget(n)
		bin := load.RunMutilateSharded(gen, shards, cl.Ring.Lookup, cfg)
		cl, gen, shards = newShardedTarget(n)
		txt := load.RunMutilateText(gen, shards, cl.Ring.Lookup, cfg)
		r := ratio(txt.AchievedRPS, bin.AchievedRPS)
		text += fmt.Sprintf("%-9d %10.0f %12.0f %12.0f %8.2fx %8.1fus %8.1fus\n",
			n, cfg.TargetRPS, bin.AchievedRPS, txt.AchievedRPS, r, bin.P99.Micros(), txt.P99.Micros())
		at := fmt.Sprintf("_%d_backends", n)
		rep.metric("binary_rps"+at, bin.AchievedRPS)
		rep.metric("text_rps"+at, txt.AchievedRPS)
		rep.metric("text_over_binary"+at, r)
		rep.metric("binary_p99_us"+at, bin.P99.Micros())
		rep.metric("text_p99_us"+at, txt.P99.Micros())
		rep.require(bin.Samples > 0 && bin.AchievedRPS >= 0.9*cfg.TargetRPS,
			"%d backends: binary achieved %.0f of %.0f offered with %d samples", n, bin.AchievedRPS, cfg.TargetRPS, bin.Samples)
		rep.require(txt.Samples > 0 && txt.AchievedRPS >= 0.9*cfg.TargetRPS,
			"%d backends: text achieved %.0f of %.0f offered with %d samples", n, txt.AchievedRPS, cfg.TargetRPS, txt.Samples)
		rep.require(r >= 0.5, "%d backends: text throughput %.2fx of binary, want >= 0.5x", n, r)
	}
	rep.Text = textSession() + text
	return rep
}

// textSession drives a scripted ASCII session against one backend of a
// live sharded cluster, over the simulated network, and renders each
// request alongside the exact bytes the server answered.
func textSession() string {
	cl := cluster.New(3, 1)
	gen := cl.AddLoadGenerator(2)

	steps := []string{
		"version\r\n",
		"set greeting 7 0 13\r\nHello, EbbRT!\r\n",
		"get greeting\r\n",
		"gets greeting\r\n",
		"set quiet 0 0 2 noreply\r\nhi\r\nget quiet\r\n",
		"delete quiet noreply\r\nget quiet\r\n",
		"add greeting 0 0 4\r\nlate\r\n",
		"replace greeting 7 0 14\r\nHello, update!\r\n",
		"get greeting missing-key\r\n",
		"delete greeting\r\n",
		"get greeting\r\n",
		"quit\r\n",
	}

	// The session talks to whichever backend owns "greeting"; any would
	// serve - each speaks both protocols on the standard port.
	target := cl.Ring.Lookup([]byte("greeting"))
	ip := cl.Backends[target].Node.IP()

	got := make([]string, len(steps))
	step := 0
	var conn appnet.Conn
	k := cl.Sys.K
	var sendNext func(c *event.Ctx)
	sendNext = func(c *event.Ctx) {
		if step >= len(steps) {
			return
		}
		conn.Send(c, iobuf.Wrap([]byte(steps[step])))
		// Give the exchange a round trip, then advance, so each step's
		// responses land in its own slot.
		k.Post(2*sim.Millisecond, func() {
			step++
			gen.Spawn(sendNext)
		})
	}
	gen.Spawn(func(c *event.Ctx) {
		gen.Runtime.Dial(c, ip, memcached.Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, _ appnet.Conn, payload *iobuf.IOBuf) {
				got[min(step, len(got)-1)] += string(payload.CopyOut())
			},
		}, func(c *event.Ctx, cn appnet.Conn) {
			conn = cn
			sendNext(c)
		})
	})
	k.RunUntil(sim.Time(len(steps)+5) * 2 * sim.Millisecond)

	out := fmt.Sprintf("Text session against backend %d of the %d-backend cluster:\n", target, len(cl.Backends))
	for i, s := range steps {
		out += fmt.Sprintf("  >> %q\n", s)
		if got[i] != "" {
			out += fmt.Sprintf("  << %q\n", got[i])
		} else {
			out += "  << (no reply)\n"
		}
	}
	return out + "\n"
}
