package load

import (
	"bytes"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/httpd"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// wrk drives the Table 2 webserver over keep-alive connections, each
// with at most one request outstanding (wrk's default behaviour).
const (
	wrkConnections = 1
	wrkDepth       = 1
)

// WrkConfig drives the Table 2 webserver measurement. Like wrk itself the
// generator is closed-loop: each connection sends its next request as
// soon as the response arrives. TargetRPS, when non-zero, paces the
// requests instead (open loop; excess arrivals queue client-side).
type WrkConfig struct {
	TargetRPS float64
	Warmup    sim.Time
	Duration  sim.Time
	Seed      uint64
}

// DefaultWrk is the "moderate load" the paper applies: closed-loop
// keep-alive load against the single-core node server.
func DefaultWrk() WrkConfig {
	return WrkConfig{
		Warmup:   30 * sim.Millisecond,
		Duration: 800 * sim.Millisecond,
		Seed:     7,
	}
}

// RunWrk drives one webserver load point.
func RunWrk(client appnet.Runtime, dial Dial, cfg WrkConfig) Summary {
	k := client.Kernel()
	e := newEngine(k, cfg.TargetRPS, setup+cfg.Warmup, cfg.Duration, 0)
	p := dialPool(e, client, []Dial{dial}, wrkConnections, wrkDepth, func() codec { return &httpCodec{} })
	k.RunUntil(setup)
	if cfg.TargetRPS > 0 {
		e.arrivals(sim.NewRng(cfg.Seed), cfg.TargetRPS, func(at sim.Time) { p.submit(0, op{at: at}) })
	} else {
		// Prime one request per connection; each completion submits
		// the next.
		e.closed = true
		for _, cn := range p.conns[0] {
			cn.mgr.Spawn(func(c *event.Ctx) { cn.submit(c, op{at: c.Now()}) })
		}
	}
	e.run()
	return e.summary()
}

// httpCodec sends the webserver's one request and matches its fixed-size
// responses in FIFO order.
type httpCodec struct{ fifo []sim.Time }

func (h *httpCodec) encode(o op) []byte {
	h.fifo = append(h.fifo, o.at)
	return httpd.Request
}

func (h *httpCodec) decode(data []byte, done func(at sim.Time)) (int, int, error) {
	consumed := 0
	for ; len(data)-consumed >= len(httpd.Response); consumed += len(httpd.Response) {
		if !bytes.HasPrefix(data[consumed:], httpd.Response[:17]) {
			return consumed, 0, errDesync
		}
		if len(h.fifo) > 0 {
			at := h.fifo[0]
			h.fifo = h.fifo[1:]
			done(at)
		}
	}
	return consumed, 0, nil
}
