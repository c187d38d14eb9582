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

// TextVsBinary: the same sharded cluster and ETC load driven twice, once
// over the binary protocol and once over the ASCII text protocol. The
// two runs differ only in the wire format - the arrival process, key
// routing, connection pools, and backends are identical - so the gap
// between the curves is the text path's cost: per-byte command-line
// tokenization at the server (memcached.textParsePerByte) and the
// larger, line-framed responses. The ROADMAP's motivation for speaking
// text at all is compatibility (stock clients and benchmarks), so the
// experiment's question is what that compatibility costs at cluster
// scale.

// TextVsBinaryRow is one backend-count point measured under both
// protocols.
type TextVsBinaryRow struct {
	Backends int
	// OfferedRPS is the aggregate open-loop arrival rate for each run.
	OfferedRPS float64
	Binary     load.MutilateResult
	Text       load.MutilateResult
}

// Ratio is text achieved throughput over binary achieved throughput.
func (r TextVsBinaryRow) Ratio() float64 {
	if r.Binary.AchievedRPS == 0 {
		return 0
	}
	return r.Text.AchievedRPS / r.Binary.AchievedRPS
}

// TextVsBinary sweeps backend counts, measuring each point under the
// binary and then the text protocol against a fresh cluster each run
// (so neither run sees the other's store mutations or queue state).
// Each run measures for duration.
func TextVsBinary(backendCounts []int, perBackendRPS float64, duration sim.Time) []TextVsBinaryRow {
	var rows []TextVsBinaryRow
	for _, n := range backendCounts {
		rows = append(rows, textVsBinaryPoint(n, perBackendRPS, duration))
	}
	return rows
}

func textVsBinaryPoint(backends int, perBackendRPS float64, duration sim.Time) TextVsBinaryRow {
	cfg := load.DefaultMutilate(perBackendRPS * float64(backends))
	cfg.Connections = connsPerBackend
	cfg.Duration = duration

	cl, gen, shards := newShardedTarget(backends)
	bin := load.RunMutilateSharded(gen, shards, cl.Ring.Lookup, cfg)

	cl, gen, shards = newShardedTarget(backends)
	txt := load.RunMutilateText(gen, shards, cl.Ring.Lookup, cfg)

	return TextVsBinaryRow{
		Backends:   backends,
		OfferedRPS: cfg.TargetRPS,
		Binary:     bin,
		Text:       txt,
	}
}

// FormatTextVsBinary renders the comparison, one backend count per row.
func FormatTextVsBinary(rows []TextVsBinaryRow) string {
	out := fmt.Sprintf("%-9s %10s %12s %12s %9s %10s %10s\n",
		"Backends", "Offered", "Binary", "Text", "Text/Bin", "Bin p99", "Text p99")
	for _, r := range rows {
		out += fmt.Sprintf("%-9d %10.0f %12.0f %12.0f %8.2fx %8.1fus %8.1fus\n",
			r.Backends, r.OfferedRPS, r.Binary.AchievedRPS, r.Text.AchievedRPS,
			r.Ratio(), r.Binary.P99.Micros(), r.Text.P99.Micros())
	}
	return out
}

// specTextProto prints the scripted session, then the comparison: Full
// at 1/2/4 backends, 200k RPS per backend, 120ms; Smoke at 1/2
// backends, 20k RPS per backend, 60ms.
func specTextProto(s Scale, _ *audit.Log) Report {
	rows := TextVsBinary(pick(s, []int{1, 2}, []int{1, 2, 4}), pick(s, 20000.0, 200000),
		pick(s, 60*sim.Millisecond, 120*sim.Millisecond))
	rep := Report{Text: textSession() + FormatTextVsBinary(rows)}
	for _, r := range rows {
		at := fmt.Sprintf("_%d_backends", r.Backends)
		rep.metric("binary_rps"+at, r.Binary.AchievedRPS)
		rep.metric("text_rps"+at, r.Text.AchievedRPS)
		rep.metric("text_over_binary"+at, r.Ratio())
		rep.metric("binary_p99_us"+at, r.Binary.P99.Micros())
		rep.metric("text_p99_us"+at, r.Text.P99.Micros())
	}
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
