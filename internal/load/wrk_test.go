package load

import (
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/httpd"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

func runWrkPoint(t *testing.T, kind testbed.ServerKind, rps float64) Summary {
	t.Helper()
	pair := testbed.NewPair(kind, 1, 4)
	srv := httpd.NewServer()
	if err := srv.Serve(pair.Server); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWrk()
	cfg.TargetRPS = rps
	cfg.Duration = 150 * sim.Millisecond
	dial := func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn)) {
		pair.Client.Dial(c, testbed.ServerIP, httpd.Port, cb, onConnect)
	}
	return RunWrk(pair.Client, dial, cfg)
}

func TestResponseIs148Bytes(t *testing.T) {
	if len(httpd.Response) != 148 {
		t.Fatalf("response is %d bytes, want 148", len(httpd.Response))
	}
}

func TestWebserverLatencyOrdering(t *testing.T) {
	ebb := runWrkPoint(t, testbed.EbbRT, 6000)
	lin := runWrkPoint(t, testbed.LinuxVM, 6000)
	if ebb.Samples < 300 || lin.Samples < 300 {
		t.Fatalf("too few samples: ebb=%d lin=%d", ebb.Samples, lin.Samples)
	}
	if ebb.Mean >= lin.Mean {
		t.Fatalf("EbbRT mean %v should beat Linux %v", ebb.Mean, lin.Mean)
	}
	if ebb.P99 >= lin.P99 {
		t.Fatalf("EbbRT p99 %v should beat Linux %v", ebb.P99, lin.P99)
	}
	t.Logf("Table2 shape: EbbRT %v | Linux %v", ebb, lin)
}

func TestWebserverServesAllAtModerateLoad(t *testing.T) {
	res := runWrkPoint(t, testbed.EbbRT, 5000)
	if res.AchievedRPS < 0.9*5000 {
		t.Fatalf("achieved %.0f of 5000", res.AchievedRPS)
	}
}
