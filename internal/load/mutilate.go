package load

import (
	"encoding/binary"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
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

// newValue draws a SET's value from the same stream as NextOp, so where
// a generator calls it is part of the op sequence.
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

// mutilateDepth is the pipeline depth of the paper's mutilate setup.
const mutilateDepth = 4

// MutilateConfig drives one load point.
type MutilateConfig struct {
	// Connections is the pool size per shard.
	Connections int
	TargetRPS   float64
	Warmup      sim.Time
	Duration    sim.Time
	Seed        uint64
	ETC         ETCConfig
}

// DefaultMutilate mirrors the paper's setup: 16 connections, each
// pipelining mutilateDepth requests over TCP.
func DefaultMutilate(targetRPS float64) MutilateConfig {
	return MutilateConfig{
		Connections: 16,
		TargetRPS:   targetRPS,
		Warmup:      30 * sim.Millisecond,
		Duration:    250 * sim.Millisecond,
		Seed:        42,
		ETC:         DefaultETC(),
	}
}

// MutilateResult is one point of a Figure 5/6 curve.
type MutilateResult struct {
	Summary
	// Keys is the measured window's per-key frequency summary: the
	// direct view of the workload's Zipf skew (hot-key share).
	Keys KeyStats
	// PerShard breaks the aggregate down by backend: each shard's
	// measured completions and RPS, exposing exactly which shard the
	// skewed tail concentrates on.
	PerShard []ShardLoad
}

// Shard is one sharded-workload target: how to reach it and the server
// whose store should be prepopulated with the shard's keys.
type Shard struct {
	Dial Dial
	Srv  *memcached.Server
}

// RunMutilate drives one load point against a single memcached server
// already listening on the server runtime.
func RunMutilate(client appnet.Runtime, dial Dial, srv *memcached.Server, cfg MutilateConfig) MutilateResult {
	return RunMutilateSharded(client, []Shard{{Dial: dial, Srv: srv}}, nil, cfg)
}

// RunMutilateSharded drives one load point against a sharded cluster
// over the binary protocol: each sampled key routes (via route, over the
// pre-generated key set) to one shard, which receives it on that shard's
// private connection pool. cfg.Connections is the pool size per shard,
// so client-side parallelism scales with the backend count as it does
// when mutilate agents are added per server. route may be nil when there
// is exactly one shard. Each shard's store is prepopulated with only the
// keys it owns.
func RunMutilateSharded(client appnet.Runtime, shards []Shard, route func(key []byte) int, cfg MutilateConfig) MutilateResult {
	return runMutilate(client, shards, route, cfg, func(w *Workload) codec {
		return &binaryCodec{work: w, inflight: map[uint32]sim.Time{}}
	})
}

func runMutilate(client appnet.Runtime, shards []Shard, route func(key []byte) int, cfg MutilateConfig, newCodec func(*Workload) codec) MutilateResult {
	work := NewWorkload(cfg.ETC, cfg.Seed)
	// Route the keyspace once, prepopulating each shard with its share.
	owner := make([]int, len(work.Keys))
	keys := make([][][]byte, len(shards))
	vals := make([][][]byte, len(shards))
	for i, key := range work.Keys {
		if route != nil {
			owner[i] = route(key)
		}
		keys[owner[i]] = append(keys[owner[i]], key)
		vals[owner[i]] = append(vals[owner[i]], work.Values[i])
	}
	dials := make([]Dial, len(shards))
	for s, sh := range shards {
		sh.Srv.Prepopulate(keys[s], vals[s])
		dials[s] = sh.Dial
	}

	k := client.Kernel()
	e := newEngine(k, cfg.TargetRPS, setup+cfg.Warmup, cfg.Duration, len(work.Keys))
	p := dialPool(e, client, dials, cfg.Connections, mutilateDepth, func() codec { return newCodec(work) })
	k.RunUntil(setup)
	e.arrivals(sim.NewRng(cfg.Seed^0x9e3779b9), cfg.TargetRPS, func(at sim.Time) {
		key, isGet := work.NextOp()
		e.note(at, key)
		p.submit(owner[key], op{at: at, key: key, isGet: isGet})
	})
	e.run()

	res := MutilateResult{Summary: e.summary(), Keys: e.keys.stats(DefaultStatsTopK)}
	for s, n := range p.perShard {
		res.PerShard = append(res.PerShard, ShardLoad{Shard: s, Completed: n, RPS: float64(n) / (float64(cfg.Duration) / 1e9)})
	}
	return res
}

// binaryCodec speaks the memcached binary protocol and matches each
// response to its request by opaque. A SET's value is drawn when the
// request leaves the queue.
type binaryCodec struct {
	work     *Workload
	opaque   uint32
	inflight map[uint32]sim.Time // opaque -> arrival
}

func (b *binaryCodec) encode(o op) []byte {
	opaque := b.opaque
	b.opaque++
	b.inflight[opaque] = o.at
	if o.isGet {
		return memcached.BuildGet(b.work.Keys[o.key], opaque)
	}
	return memcached.BuildSet(b.work.Keys[o.key], b.work.newValue(), 0, opaque)
}

func (b *binaryCodec) decode(data []byte, done func(at sim.Time)) (int, int, error) {
	consumed := 0
	for {
		hdr, _, n, err := memcached.NextFrame(data[consumed:], memcached.MagicResponse)
		if err != nil || n == 0 {
			return consumed, hdr.Reserve(), err
		}
		consumed += n
		if at, ok := b.inflight[hdr.Opaque]; ok {
			delete(b.inflight, hdr.Opaque)
			done(at)
		}
	}
}
