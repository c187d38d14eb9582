// Package load implements the evaluation's load generators: a
// mutilate-style memcached client generating the Facebook ETC workload
// (paper §4.2) - over the binary protocol (RunMutilate,
// RunMutilateSharded) or the ASCII text protocol (RunMutilateText) -
// a replicated-cluster client-Ebb runner with a failure timeline
// (RunClusterLoad), and a wrk-style HTTP client (paper §4.3, Table 2).
//
// All are open-loop: requests arrive by a Poisson process at a target
// rate regardless of completions, so server queueing shows up as latency -
// the methodology behind the paper's latency-vs-throughput curves.
package load

import (
	"encoding/binary"
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// ETCConfig describes the Facebook ETC workload statistics the paper
// configures mutilate with: 20-70 byte keys, values mostly 1-1024 bytes,
// skewed key popularity, 90% GETs.
type ETCConfig struct {
	KeySpace  int
	KeyMin    int
	KeyMax    int
	ValueMax  int
	ValueMean float64
	GetRatio  float64
	ZipfSkew  float64
}

// DefaultETC returns the workload used throughout the harness.
func DefaultETC() ETCConfig {
	return ETCConfig{
		KeySpace:  20000,
		KeyMin:    20,
		KeyMax:    70,
		ValueMax:  1024,
		ValueMean: 220,
		GetRatio:  0.9,
		ZipfSkew:  1.05,
	}
}

// Workload is a pre-generated ETC key/value population plus samplers.
type Workload struct {
	cfg    ETCConfig
	Keys   [][]byte
	Values [][]byte
	zipf   *sim.Zipf
	rng    *sim.Rng
}

// NewWorkload builds a deterministic workload from a seed.
func NewWorkload(cfg ETCConfig, seed uint64) *Workload {
	rng := sim.NewRng(seed)
	w := &Workload{cfg: cfg, rng: rng}
	w.Keys = make([][]byte, cfg.KeySpace)
	w.Values = make([][]byte, cfg.KeySpace)
	for i := range w.Keys {
		klen := rng.IntRange(cfg.KeyMin, cfg.KeyMax)
		key := make([]byte, klen)
		// Distinct prefix guarantees uniqueness; the rest is filler.
		n := binary.PutUvarint(key, uint64(i)+1)
		for j := n; j < klen; j++ {
			key[j] = byte('a' + (i+j)%26)
		}
		w.Keys[i] = key
		w.Values[i] = w.newValue()
	}
	w.zipf = sim.NewZipf(rng, cfg.ZipfSkew, cfg.KeySpace)
	return w
}

func (w *Workload) newValue() []byte {
	vlen := int(w.rng.Exp(w.cfg.ValueMean)) + 1
	if vlen > w.cfg.ValueMax {
		vlen = w.cfg.ValueMax
	}
	v := make([]byte, vlen)
	for j := range v {
		v[j] = byte('0' + j%10)
	}
	return v
}

// NextOp samples the next operation: a key index and whether it is a GET.
func (w *Workload) NextOp() (int, bool) {
	return w.zipf.Next(), w.rng.Float64() < w.cfg.GetRatio
}

// NextKey samples one more key index from the popularity distribution -
// how a multiget arrival picks its remaining keys.
func (w *Workload) NextKey() int { return w.zipf.Next() }

// MutilateConfig drives one load point.
type MutilateConfig struct {
	Connections int
	Pipeline    int
	TargetRPS   float64
	Warmup      sim.Time
	Duration    sim.Time
	Seed        uint64
	ETC         ETCConfig
	// TextProtocol switches the generator from the binary protocol to
	// the ASCII text protocol (RunMutilateText): requests are command
	// lines, responses are matched in connection FIFO order rather than
	// by opaque.
	TextProtocol bool
	// StatsTopK is how many keys the per-key frequency summary keeps
	// (default DefaultStatsTopK).
	StatsTopK int
}

// DefaultMutilate mirrors the paper's setup: pipeline depth 4 over TCP.
func DefaultMutilate(targetRPS float64) MutilateConfig {
	return MutilateConfig{
		Connections: 16,
		Pipeline:    4,
		TargetRPS:   targetRPS,
		Warmup:      30 * sim.Millisecond,
		Duration:    250 * sim.Millisecond,
		Seed:        42,
		ETC:         DefaultETC(),
	}
}

// MutilateResult is one point of a Figure 5/6 curve.
type MutilateResult struct {
	TargetRPS   float64
	AchievedRPS float64
	Mean        sim.Time
	P99         sim.Time
	Samples     int
	// Keys is the measured window's per-key frequency summary: the
	// direct view of the workload's Zipf skew (hot-key share) that
	// experiments previously had to infer from shard imbalance.
	Keys KeyStats
	// PerShard breaks the aggregate down by backend: each shard's
	// measured completions and RPS, exposing exactly which shard the
	// skewed tail concentrates on.
	PerShard []ShardLoad
}

// String renders the point like the paper's axes.
func (r MutilateResult) String() string {
	return fmt.Sprintf("target=%.0f achieved=%.0f mean=%.1fus p99=%.1fus n=%d",
		r.TargetRPS, r.AchievedRPS, r.Mean.Micros(), r.P99.Micros(), r.Samples)
}

// pendingReq is a generated request waiting for or in flight to the server.
type pendingReq struct {
	arrival sim.Time
	keyIdx  int
	isGet   bool
}

// mconn is one load-generator connection.
type mconn struct {
	m           *mutilate
	conn        appnet.Conn
	mgr         *event.Manager
	shard       int
	queue       []pendingReq
	inflight    map[uint32]sim.Time // opaque -> arrival time
	nextOpaque  uint32
	outstanding int
	rx          iobuf.Stream
	connected   bool

	// Text-protocol state (mutilate_text.go): the protocol has no opaque,
	// so responses complete the oldest outstanding op on the connection.
	textFifo []textPending
	tpSkip   int // bytes of a VALUE data block (+CRLF) still to skip
}

// Dial connects one client connection to a target (injected to avoid
// coupling the load generator to the testbed or cluster packages).
type Dial func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn))

// Shard is one sharded-workload target: how to reach it and the server
// whose store should be prepopulated with the shard's keys.
type Shard struct {
	Dial Dial
	Srv  *memcached.Server
}

// mutilate is the running load generator.
type mutilate struct {
	cfg       MutilateConfig
	work      *Workload
	client    appnet.Runtime
	shards    [][]*mconn // per shard, its connection pool
	route     []int      // key index -> shard
	rrNext    []int      // per-shard round-robin cursor
	rec       *sim.Recorder
	completed uint64
	perShard  []uint64 // measured completions per shard
	keyFreq   *keyCounter
	measStart sim.Time
	measEnd   sim.Time
	arrRng    *sim.Rng
}

// RunMutilate drives one load point against a single memcached server
// already listening on the server runtime.
func RunMutilate(client appnet.Runtime, dial Dial, srv *memcached.Server, cfg MutilateConfig) MutilateResult {
	return RunMutilateSharded(client, []Shard{{Dial: dial, Srv: srv}}, nil, cfg)
}

// RunMutilateSharded drives one load point against a sharded cluster:
// each sampled key routes (via route, over the pre-generated key set) to
// one shard, which receives it on that shard's private connection pool.
// cfg.Connections is the pool size per shard, so client-side parallelism
// scales with the backend count as it does when mutilate agents are
// added per server. route may be nil when there is exactly one shard.
// Each shard's store is prepopulated with only the keys it owns.
func RunMutilateSharded(client appnet.Runtime, shards []Shard, route func(key []byte) int, cfg MutilateConfig) MutilateResult {
	work := NewWorkload(cfg.ETC, cfg.Seed)
	m := &mutilate{
		cfg:      cfg,
		work:     work,
		client:   client,
		route:    make([]int, len(work.Keys)),
		rrNext:   make([]int, len(shards)),
		rec:      sim.NewRecorder(int(cfg.TargetRPS * float64(cfg.Duration) / 1e9)),
		perShard: make([]uint64, len(shards)),
		keyFreq:  newKeyCounter(len(work.Keys)),
		arrRng:   sim.NewRng(cfg.Seed ^ 0x9e3779b9),
	}
	// Route the keyspace once, prepopulating each shard with its share.
	perShard := make([][][]byte, len(shards))
	perShardVals := make([][][]byte, len(shards))
	for i, key := range work.Keys {
		s := 0
		if route != nil {
			s = route(key)
		}
		m.route[i] = s
		perShard[s] = append(perShard[s], key)
		perShardVals[s] = append(perShardVals[s], work.Values[i])
	}
	for s, sh := range shards {
		sh.Srv.Prepopulate(perShard[s], perShardVals[s])
	}

	k := client.Kernel()
	mgrs := client.Mgrs()

	// Open each shard's pool, spreading connections round-robin across
	// client cores.
	m.shards = make([][]*mconn, len(shards))
	nextCore := 0
	for s, sh := range shards {
		dial := sh.Dial
		for i := 0; i < cfg.Connections; i++ {
			mc := &mconn{m: m, mgr: mgrs[nextCore%len(mgrs)], shard: s, inflight: map[uint32]sim.Time{}}
			nextCore++
			m.shards[s] = append(m.shards[s], mc)
			mc.mgr.Spawn(func(c *event.Ctx) {
				dial(c, appnet.Callbacks{
					OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
						mc.onData(c, payload)
					},
				}, func(c *event.Ctx, conn appnet.Conn) {
					mc.conn = conn
					mc.connected = true
				})
			})
		}
	}

	// Let handshakes finish, then start the arrival process.
	setup := 5 * sim.Millisecond
	m.measStart = setup + cfg.Warmup
	m.measEnd = m.measStart + cfg.Duration
	k.RunUntil(setup)
	m.scheduleNextArrival(k)
	k.RunUntil(m.measEnd + 20*sim.Millisecond)

	res := MutilateResult{
		TargetRPS:   cfg.TargetRPS,
		AchievedRPS: float64(m.completed) / (float64(cfg.Duration) / 1e9),
		Mean:        m.rec.Mean(),
		P99:         m.rec.Percentile(99),
		Samples:     m.rec.Count(),
		Keys:        m.keyFreq.stats(cfg.StatsTopK),
		PerShard:    make([]ShardLoad, len(shards)),
	}
	for s, n := range m.perShard {
		res.PerShard[s] = ShardLoad{
			Shard:     s,
			Completed: n,
			RPS:       float64(n) / (float64(cfg.Duration) / 1e9),
		}
	}
	return res
}

// scheduleNextArrival generates the open-loop Poisson arrivals. Each
// arrival routes to its key's shard and round-robins within that
// shard's pool.
func (m *mutilate) scheduleNextArrival(k *sim.Kernel) {
	gap := m.arrRng.Exp(1e9 / m.cfg.TargetRPS) // ns between arrivals
	k.Post(sim.Time(gap), func() {
		if k.Now() >= m.measEnd {
			return
		}
		keyIdx, isGet := m.work.NextOp()
		if k.Now() >= m.measStart {
			m.keyFreq.note(keyIdx)
		}
		pool := m.shards[m.route[keyIdx]]
		mc := pool[m.rrNext[m.route[keyIdx]]%len(pool)]
		m.rrNext[m.route[keyIdx]]++
		req := pendingReq{arrival: k.Now(), keyIdx: keyIdx, isGet: isGet}
		mc.mgr.Spawn(func(c *event.Ctx) { mc.submit(c, req) })
		m.scheduleNextArrival(k)
	})
}

// submit queues a request and pumps the pipeline.
func (mc *mconn) submit(c *event.Ctx, req pendingReq) {
	mc.queue = append(mc.queue, req)
	mc.pump(c)
}

// pump sends queued requests up to the pipeline limit.
func (mc *mconn) pump(c *event.Ctx) {
	if !mc.connected {
		return
	}
	for mc.outstanding < mc.m.cfg.Pipeline && len(mc.queue) > 0 {
		req := mc.queue[0]
		mc.queue = mc.queue[1:]
		var packet []byte
		if mc.m.cfg.TextProtocol {
			packet = mc.encodeText(req)
		} else {
			opaque := mc.nextOpaque
			mc.nextOpaque++
			if req.isGet {
				packet = memcached.BuildGet(mc.m.work.Keys[req.keyIdx], opaque)
			} else {
				packet = memcached.BuildSet(mc.m.work.Keys[req.keyIdx], mc.m.work.newValue(), 0, opaque)
			}
			mc.inflight[opaque] = req.arrival
		}
		mc.outstanding++
		mc.conn.Send(c, iobuf.Wrap(packet))
	}
}

// onData parses responses and records latency.
func (mc *mconn) onData(c *event.Ctx, payload *iobuf.IOBuf) {
	data := mc.rx.Take(payload)
	if mc.m.cfg.TextProtocol {
		mc.rx.Keep(data, mc.decodeText(c, data), 0)
		mc.pump(c)
		return
	}
	consumed := 0
	for {
		hdr, _, n, err := memcached.NextFrame(data[consumed:], memcached.MagicResponse)
		if err != nil {
			// Desynced response stream: retire the connection (its
			// in-flight requests are lost; the run continues on the
			// remaining pool).
			mc.rx = iobuf.Stream{}
			mc.connected = false
			mc.conn.Close(c)
			return
		}
		if n == 0 {
			mc.rx.Keep(data, consumed, hdr.Reserve())
			break
		}
		consumed += n
		arrival, ok := mc.inflight[hdr.Opaque]
		if !ok {
			continue
		}
		delete(mc.inflight, hdr.Opaque)
		mc.outstanding--
		now := c.Now()
		if arrival >= mc.m.measStart && now <= mc.m.measEnd {
			mc.m.rec.Add(now - arrival)
			mc.m.completed++
			mc.m.perShard[mc.shard]++
		}
	}
	mc.pump(c)
}
