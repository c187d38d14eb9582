package load

import (
	"bytes"
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/httpd"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// WrkConfig drives the Table 2 webserver measurement. Like wrk itself the
// generator is closed-loop: each keep-alive connection keeps exactly one
// request outstanding, sending the next as soon as the response arrives.
// TargetRPS, when non-zero, paces each connection instead (open loop).
type WrkConfig struct {
	Connections int
	TargetRPS   float64
	Warmup      sim.Time
	Duration    sim.Time
	Seed        uint64
}

// DefaultWrk is the "moderate load" the paper applies: a handful of
// closed-loop connections against the single-core node server.
func DefaultWrk() WrkConfig {
	return WrkConfig{
		Connections: 1,
		Warmup:      30 * sim.Millisecond,
		Duration:    800 * sim.Millisecond,
		Seed:        7,
	}
}

// WrkResult is the Table 2 row.
type WrkResult struct {
	AchievedRPS float64
	Mean        sim.Time
	P99         sim.Time
	Samples     int
}

// String renders like the paper's table (microseconds).
func (r WrkResult) String() string {
	return fmt.Sprintf("mean=%.2fus p99=%.2fus achieved=%.0f n=%d",
		r.Mean.Micros(), r.P99.Micros(), r.AchievedRPS, r.Samples)
}

// wconn is one keep-alive connection with at most one request in flight
// (wrk's default behaviour); excess arrivals queue client-side.
type wconn struct {
	w         *wrk
	conn      appnet.Conn
	mgr       *event.Manager
	queue     []sim.Time
	inflight  []sim.Time
	rx        []byte
	connected bool
}

type wrk struct {
	cfg       WrkConfig
	conns     []*wconn
	rec       *sim.Recorder
	completed uint64
	measStart sim.Time
	measEnd   sim.Time
	rng       *sim.Rng
	rrNext    int
}

// RunWrk drives one webserver load point.
func RunWrk(client appnet.Runtime, dial func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn)), cfg WrkConfig) WrkResult {
	w := &wrk{
		cfg: cfg,
		rec: sim.NewRecorder(int(cfg.TargetRPS * float64(cfg.Duration) / 1e9)),
		rng: sim.NewRng(cfg.Seed),
	}
	k := client.Kernel()
	mgrs := client.Mgrs()
	for i := 0; i < cfg.Connections; i++ {
		wc := &wconn{w: w, mgr: mgrs[i%len(mgrs)]}
		w.conns = append(w.conns, wc)
		wc.mgr.Spawn(func(c *event.Ctx) {
			dial(c, appnet.Callbacks{
				OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
					wc.onData(c, payload)
				},
			}, func(c *event.Ctx, conn appnet.Conn) {
				wc.conn = conn
				wc.connected = true
			})
		})
	}
	setup := 5 * sim.Millisecond
	w.measStart = setup + cfg.Warmup
	w.measEnd = w.measStart + cfg.Duration
	k.RunUntil(setup)
	if cfg.TargetRPS > 0 {
		w.scheduleNextArrival(k)
	} else {
		// Closed loop: prime one request per connection; completions
		// trigger the next send.
		for _, wc := range w.conns {
			wc := wc
			wc.mgr.Spawn(func(c *event.Ctx) {
				wc.queue = append(wc.queue, c.Now())
				wc.pump(c)
			})
		}
	}
	k.RunUntil(w.measEnd + 20*sim.Millisecond)
	return WrkResult{
		AchievedRPS: float64(w.completed) / (float64(cfg.Duration) / 1e9),
		Mean:        w.rec.Mean(),
		P99:         w.rec.Percentile(99),
		Samples:     w.rec.Count(),
	}
}

func (w *wrk) scheduleNextArrival(k *sim.Kernel) {
	gap := w.rng.Exp(1e9 / w.cfg.TargetRPS)
	k.Post(sim.Time(gap), func() {
		if k.Now() >= w.measEnd {
			return
		}
		wc := w.conns[w.rrNext%len(w.conns)]
		w.rrNext++
		arrival := k.Now()
		wc.mgr.Spawn(func(c *event.Ctx) {
			wc.queue = append(wc.queue, arrival)
			wc.pump(c)
		})
		w.scheduleNextArrival(k)
	})
}

func (wc *wconn) pump(c *event.Ctx) {
	if !wc.connected {
		return
	}
	for len(wc.inflight) < 1 && len(wc.queue) > 0 {
		arrival := wc.queue[0]
		wc.queue = wc.queue[1:]
		wc.inflight = append(wc.inflight, arrival)
		wc.conn.Send(c, iobuf.Wrap(httpd.Request))
	}
}

func (wc *wconn) onData(c *event.Ctx, payload *iobuf.IOBuf) {
	wc.rx = payload.AppendTo(wc.rx)
	for len(wc.rx) >= len(httpd.Response) {
		if !bytes.HasPrefix(wc.rx, httpd.Response[:17]) {
			// Desynchronized: drop connection state.
			wc.rx = nil
			return
		}
		wc.rx = wc.rx[len(httpd.Response):]
		if len(wc.inflight) == 0 {
			continue
		}
		arrival := wc.inflight[0]
		wc.inflight = wc.inflight[1:]
		now := c.Now()
		if arrival >= wc.w.measStart && now <= wc.w.measEnd {
			wc.w.rec.Add(now - arrival)
			wc.w.completed++
		}
		if wc.w.cfg.TargetRPS == 0 && now < wc.w.measEnd {
			// Closed loop: immediately issue the next request.
			wc.queue = append(wc.queue, now)
		}
	}
	wc.pump(c)
}
