// Host-clock benchmarks of the mechanisms behind the paper's evaluation
// (§4): Ebb dispatch, NetPIPE, memcached and the V8 suite. The tables and figures themselves, with the paper's numbers and
// the conditions they must meet, are `go run ./cmd/ebbrt run <name>`
// (`ebbrt list` names them). Run with:
//
//	go test -bench=. -benchmem
package ebbrt_test

import (
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/apps/netpipe"
	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/jsvm"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// ---- Table 1: Ebb invocation -------------------------------------------

type benchRep struct{ n int }

func (r *benchRep) Bump() { r.n++ }

//go:noinline
func (r *benchRep) BumpNoInline() { r.n++ }

type benchBumper interface{ BumpVirtual() }

func (r *benchRep) BumpVirtual() { r.n++ }

type benchRep2 struct{ n int }

func (r *benchRep2) BumpVirtual() { r.n++ }

func BenchmarkTable1Inline(b *testing.B) {
	r := &benchRep{}
	for i := 0; i < b.N; i++ {
		r.Bump()
	}
}

func BenchmarkTable1NoInline(b *testing.B) {
	r := &benchRep{}
	for i := 0; i < b.N; i++ {
		r.BumpNoInline()
	}
}

func BenchmarkTable1Virtual(b *testing.B) {
	targets := []benchBumper{&benchRep{}, &benchRep2{}}
	for i := 0; i < b.N; i++ {
		targets[i&1].BumpVirtual()
	}
}

func BenchmarkTable1InlineEbb(b *testing.B) {
	d := core.NewDomain(1, core.NativeTable)
	ref := core.Allocate(d, func(int) *benchRep { return &benchRep{} })
	ref.Get(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Get(0).Bump()
	}
}

func BenchmarkTable1HostedEbb(b *testing.B) {
	d := core.NewDomain(1, core.HostedTable)
	ref := core.Allocate(d, func(int) *benchRep { return &benchRep{} })
	ref.Get(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Get(0).Bump()
	}
}

// ---- Figure 4: NetPIPE ---------------------------------------------------

func benchNetpipe(b *testing.B, kind testbed.ServerKind, size int) {
	b.Helper()
	var goodput float64
	for i := 0; i < b.N; i++ {
		pts, err := netpipe.Run(kind, []int{size}, 5)
		if err != nil {
			b.Fatal(err)
		}
		goodput = pts[0].GoodputMbps
	}
	b.ReportMetric(goodput, "Mbps")
}

func BenchmarkFigure4NetpipeEbbRT64B(b *testing.B)   { benchNetpipe(b, testbed.EbbRT, 64) }
func BenchmarkFigure4NetpipeLinux64B(b *testing.B)   { benchNetpipe(b, testbed.LinuxVM, 64) }
func BenchmarkFigure4NetpipeEbbRT256kB(b *testing.B) { benchNetpipe(b, testbed.EbbRT, 262144) }
func BenchmarkFigure4NetpipeLinux256kB(b *testing.B) { benchNetpipe(b, testbed.LinuxVM, 262144) }

// ---- Figures 5/6: memcached ---------------------------------------------

func benchMemcached(b *testing.B, kind testbed.ServerKind, cores int, rate float64) {
	b.Helper()
	var res load.MutilateResult
	for i := 0; i < b.N; i++ {
		pair := testbed.NewPair(kind, cores, 8)
		srv := memcached.NewServer(memcached.NewRCUStore(), cores)
		if err := srv.Serve(pair.Server); err != nil {
			b.Fatal(err)
		}
		cfg := load.DefaultMutilate(rate)
		cfg.Duration = 80 * sim.Millisecond
		dial := func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn)) {
			pair.Client.Dial(c, testbed.ServerIP, memcached.Port, cb, onConnect)
		}
		res = load.RunMutilate(pair.Client, dial, srv, cfg)
	}
	b.ReportMetric(res.Mean.Micros(), "mean-us")
	b.ReportMetric(res.P99.Micros(), "p99-us")
	b.ReportMetric(res.AchievedRPS, "rps")
}

func BenchmarkFigure5MemcachedEbbRT(b *testing.B)   { benchMemcached(b, testbed.EbbRT, 1, 150000) }
func BenchmarkFigure5MemcachedLinux(b *testing.B)   { benchMemcached(b, testbed.LinuxVM, 1, 150000) }
func BenchmarkFigure5MemcachedNative(b *testing.B)  { benchMemcached(b, testbed.LinuxNative, 1, 150000) }
func BenchmarkFigure5MemcachedOSv(b *testing.B)     { benchMemcached(b, testbed.OSv, 1, 150000) }
func BenchmarkFigure6MemcachedEbbRT4c(b *testing.B) { benchMemcached(b, testbed.EbbRT, 4, 600000) }
func BenchmarkFigure6MemcachedLinux4c(b *testing.B) { benchMemcached(b, testbed.LinuxVM, 4, 600000) }

// ---- Figure 7: V8 suite ---------------------------------------------------

func BenchmarkFigure7SuiteEbbRT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		jsvm.RunSuite(jsvm.EbbRTEnv())
	}
}

func BenchmarkFigure7SuiteLinux(b *testing.B) {
	for i := 0; i < b.N; i++ {
		jsvm.RunSuite(jsvm.LinuxEnv())
	}
}
