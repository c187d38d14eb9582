package main

import (
	"fmt"
	"runtime"
	"time"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/apps/netpipe"
	"ebbrt/internal/cluster"
	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/mem"
	"ebbrt/internal/netstack"
	"ebbrt/internal/rcu"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// The isolated probes: tight loops over one layer's public API, fed from
// the same seeded population as the workloads, so that an end-to-end
// movement can be pinned to a layer. Each reports host ns and heap
// allocations per operation.

// probe is one loop. make prepares it and returns a function running n
// operations. A probe with a fixed batch pays a set-up cost on every
// call (netpipe.Run builds a testbed and runs its idle clock out) that
// must not be charged to the operations: it is timed as the difference
// between calls of three batches and of one.
type probe struct {
	name  string
	fixed int // operations per batch; 0 sizes the batch by time
	make  func(pe *probeEnv) func(n int)
}

// probeEnv is the shared input: an ETC-shaped population with its
// version-0 values, and one 32KiB payload.
type probeEnv struct {
	pop    *population
	keyStr []string
	values [][]byte
	gets   [][]byte // binary GET requests, one per key
	bulk   []byte
	k      *sim.Kernel
	mgr    *event.Manager
}

const probeKeys = 4096

func newProbeEnv(seed uint64) *probeEnv {
	etc := *specs[0]
	etc.keys = probeKeys
	pe := &probeEnv{pop: newPopulation(seed, &etc), k: sim.NewKernel()}
	for i, key := range pe.pop.keys {
		pe.keyStr = append(pe.keyStr, string(key))
		pe.values = append(pe.values, pe.pop.value(i, 0))
		pe.gets = append(pe.gets, buildGet(key, uint32(i)))
	}
	pe.bulk = make([]byte, 32<<10)
	copy(pe.bulk, pe.pop.tape)
	m := machine.New(pe.k, machine.DefaultConfig("probe", 1))
	pe.mgr = event.NewManager(m.Cores[0], event.DefaultCosts())
	return pe
}

// inHandler runs fn inside one spawned event handler and returns once
// the kernel has nothing left to do.
func (pe *probeEnv) inHandler(fn func(c *event.Ctx)) {
	pe.mgr.Spawn(fn)
	pe.k.Run()
}

func nop() {}

// sink keeps results the compiler could otherwise discard.
var sink int

// stubRuntime is an appnet.Runtime with nothing beneath it: Listen keeps
// the accept function, and the connections it is asked to accept drop
// what they are sent.
type stubRuntime struct {
	pe     *probeEnv
	accept func(conn appnet.Conn) appnet.Callbacks
}

func (s *stubRuntime) Listen(_ uint16, accept func(conn appnet.Conn) appnet.Callbacks) error {
	s.accept = accept
	return nil
}
func (s *stubRuntime) Dial(*event.Ctx, netstack.Ipv4Addr, uint16, appnet.Callbacks, func(*event.Ctx, appnet.Conn)) {
}
func (s *stubRuntime) Mgrs() []*event.Manager { return []*event.Manager{s.pe.mgr} }
func (s *stubRuntime) Kernel() *sim.Kernel    { return s.pe.k }
func (s *stubRuntime) Name() string           { return "stub" }

type stubConn struct{}

func (stubConn) Send(_ *event.Ctx, payload *iobuf.IOBuf) { sink += payload.ComputeChainDataLength() }
func (stubConn) Close(*event.Ctx)                        {}
func (stubConn) Core() int                               { return 0 }

// serve builds a memcached server over the stub runtime and returns a
// probe body that feeds it requests (made by request from a key index)
// from inside one handler: parse, store, respond, nothing else.
func serve(pe *probeEnv, request func(i int) []byte) func(n int) {
	srv := memcached.NewServer(memcached.NewRCUStore(), 1)
	srv.Prepopulate(pe.pop.keys, pe.values)
	rt := &stubRuntime{pe: pe}
	if err := srv.Serve(rt); err != nil {
		panic(err) // the stub's Listen cannot fail
	}
	conn := stubConn{}
	cb := rt.accept(conn)
	reqs := make([][]byte, probeKeys)
	for i := range reqs {
		reqs[i] = request(i)
	}
	return func(n int) {
		pe.inHandler(func(c *event.Ctx) {
			for i := 0; i < n; i++ {
				cb.OnData(c, conn, iobuf.Wrap(reqs[i%probeKeys]))
			}
		})
	}
}

// pingpong is the NetPIPE exchange of size-byte messages over the given
// system on both ends; ops counts what one round trip is worth.
func pingpong(kind testbed.ServerKind, size int, tripsPerOp int) func(n int) {
	return func(n int) {
		if _, err := netpipe.Run(kind, []int{size}, n*tripsPerOp); err != nil {
			panic(fmt.Sprintf("netpipe probe: %v", err))
		}
	}
}

var probes = []probe{
	{name: "sim.schedule_fire", make: func(pe *probeEnv) func(int) {
		k := sim.NewKernel()
		for i := 0; i < 1000; i++ {
			k.After(sim.Time(i+1)*sim.Microsecond, nop)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				k.After(sim.Millisecond, nop)
				k.Step()
			}
		}
	}},
	{name: "sim.schedule_cancel", make: func(pe *probeEnv) func(int) {
		k := sim.NewKernel()
		for i := 0; i < 1000; i++ {
			k.After(sim.Time(i+1)*sim.Millisecond, nop)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				k.After(1, nop).Cancel()
				k.RunFor(0) // discards the cancelled event at the head
			}
		}
	}},
	{name: "event.spawn_dispatch", make: func(pe *probeEnv) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				pe.mgr.Spawn(func(*event.Ctx) {})
			}
			pe.k.Run()
		}
	}},
	{name: "event.block_resume", make: func(pe *probeEnv) func(int) {
		return func(n int) {
			pe.inHandler(func(c *event.Ctx) {
				for i := 0; i < n; i++ {
					c.Block(func(resume func()) { pe.k.After(sim.Microsecond, resume) })
				}
			})
		}
	}},
	{name: "event.timer", make: func(pe *probeEnv) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				pe.mgr.After(sim.Time(i+1)*sim.Microsecond, func(*event.Ctx) {})
			}
			pe.k.Run()
		}
	}},
	{name: "iobuf.build_220b", make: func(pe *probeEnv) func(int) { return buildIOBuf(pe.bulk[:220]) }},
	{name: "iobuf.build_32k", make: func(pe *probeEnv) func(int) { return buildIOBuf(pe.bulk) }},
	{name: "iobuf.copyout_32k", make: func(pe *probeEnv) func(int) {
		chain := mssChain(pe.bulk)
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += len(chain.CopyOut())
			}
		}
	}},
	{name: "iobuf.reader_hdr", make: func(pe *probeEnv) func(int) {
		// A request header that straddles two chain elements.
		req := pe.gets[0]
		chain := iobuf.Wrap(req[:10])
		chain.AppendChain(iobuf.Wrap(req[10:]))
		return func(n int) {
			for i := 0; i < n; i++ {
				r := chain.Reader()
				magic, _ := r.ReadByte()
				opcode, _ := r.ReadByte()
				keyLen, _ := r.ReadUint16()
				_ = r.Skip(4)
				body, _ := r.ReadUint32()
				opaque, _ := r.ReadUint32()
				cas, _ := r.ReadUint64()
				sink += int(magic) + int(opcode) + int(keyLen) + int(body) + int(opaque) + int(cas)
			}
		}
	}},
	{name: "netstack.pingpong_64b", fixed: 4000, make: func(*probeEnv) func(int) { return pingpong(testbed.EbbRT, 64, 1) }},
	{name: "netstack.stream_256k", fixed: 16, make: func(*probeEnv) func(int) { return pingpong(testbed.EbbRT, 256<<10, 2) }},
	{name: "gpos.pingpong_64b", fixed: 4000, make: func(*probeEnv) func(int) { return pingpong(testbed.LinuxVM, 64, 1) }},
	{name: "gpos.stream_256k", fixed: 16, make: func(*probeEnv) func(int) { return pingpong(testbed.LinuxVM, 256<<10, 2) }},
	{name: "memcached.next_frame", make: func(pe *probeEnv) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				_, body, used, _ := memcached.NextFrame(pe.gets[i%probeKeys], memcached.MagicRequest)
				sink += len(body) + used
			}
		}
	}},
	{name: "memcached.serve_get_bin", make: func(pe *probeEnv) func(int) {
		return serve(pe, func(i int) []byte { return pe.gets[i] })
	}},
	{name: "memcached.serve_set_bin", make: func(pe *probeEnv) func(int) {
		return serve(pe, func(i int) []byte { return buildSet(pe.pop, i, 1, uint32(i)) })
	}},
	{name: "memcached.serve_get_text", make: func(pe *probeEnv) func(int) {
		return serve(pe, func(i int) []byte { return []byte("get " + pe.keyStr[i] + "\r\n") })
	}},
	{name: "memcached.rcu_store_get", make: func(pe *probeEnv) func(int) {
		s, _ := filledStore(pe, memcached.NewRCUStore())
		return func(n int) {
			for i := 0; i < n; i++ {
				e, _ := s.Get(pe.keyStr[i%probeKeys])
				sink += len(e.Value)
			}
		}
	}},
	{name: "memcached.rcu_store_set", make: func(pe *probeEnv) func(int) {
		s, entries := filledStore(pe, memcached.NewRCUStore())
		return func(n int) {
			for i := 0; i < n; i++ {
				s.Set(pe.keyStr[i%probeKeys], entries[i%probeKeys])
			}
		}
	}},
	{name: "memcached.bounded_store_set_evict", make: func(pe *probeEnv) func(int) {
		// One 8MiB block holds some 27 thousand 300-byte items; cycling
		// over twice as many keys makes every Set evict its place.
		const cycle = 60000
		s := memcached.NewBoundedStore(8<<20, memcached.EvictLRU, nil)
		keys := make([]string, cycle)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s#%d", pe.keyStr[i%probeKeys], i)
		}
		e := &memcached.Entry{Value: pe.bulk[:200]}
		for _, key := range keys {
			s.Set(key, e)
		}
		next := 0
		return func(n int) {
			for i := 0; i < n; i++ {
				s.Set(keys[next%cycle], e)
				next++
			}
		}
	}},
	{name: "rcu.table_get", make: func(pe *probeEnv) func(int) {
		t := rcu.NewTable[string, int](rcu.StringHash, 1024)
		for i, key := range pe.keyStr {
			t.Put(key, i)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				v, _ := t.Get(pe.keyStr[i%probeKeys])
				sink += v
			}
		}
	}},
	{name: "mem.slab_alloc_free", make: func(pe *probeEnv) func(int) {
		slab := mem.NewSlabAllocator(mem.NewPageAllocator(1, 64<<20), 256, 1, func(int) int { return 0 })
		return func(n int) {
			for i := 0; i < n; i++ {
				a, _ := slab.Alloc(0)
				slab.Free(0, a)
			}
		}
	}},
	{name: "cluster.ring_lookup3", make: func(pe *probeEnv) func(int) {
		ring := cluster.NewRing(0)
		for b := 0; b < 4; b++ {
			ring.Add(b)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += ring.LookupN(pe.pop.keys[i%probeKeys], 3)[0]
			}
		}
	}},
	{name: "core.ebb_get", make: func(pe *probeEnv) func(int) {
		ref := core.Allocate(core.NewDomain(1, core.NativeTable), func(int) *int { return new(int) })
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += *ref.Get(0)
			}
		}
	}},
	{name: "future.then", make: func(pe *probeEnv) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				p := future.NewPromise[int]()
				f := future.Then(p.Future(), func(r future.Result[int]) (int, error) { return r.Must() + 1, nil })
				p.SetValue(i)
				if r, ok := f.Poll(); ok {
					sink += r.Must()
				}
			}
		}
	}},
}

// buildIOBuf makes a message the way a sender does: a buffer with room
// for a header, the header and the payload appended in place.
func buildIOBuf(payload []byte) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			b := iobuf.New(hdrLen + len(payload))
			putReqHdr(b.Append(hdrLen), opcodeSet, 0, 0, len(payload), uint32(i))
			copy(b.Append(len(payload)), payload)
			sink += b.Length()
		}
	}
}

// mssChain cuts data into a chain of segment-sized elements, as it
// arrives from the stack.
func mssChain(data []byte) *iobuf.IOBuf {
	const mss = 1460
	head := iobuf.Wrap(data[:mss])
	for off := mss; off < len(data); off += mss {
		head.AppendChain(iobuf.Wrap(data[off:min(off+mss, len(data))]))
	}
	return head
}

func filledStore(pe *probeEnv, s memcached.Store) (memcached.Store, []*memcached.Entry) {
	entries := make([]*memcached.Entry, probeKeys)
	for i := range entries {
		entries[i] = &memcached.Entry{Value: pe.values[i]}
		s.Set(pe.keyStr[i], entries[i])
	}
	return s, entries
}

// probeSeconds is how long each probe loops for a run asked to measure
// for seconds: half a second at the default ten.
func probeSeconds(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / 20
}

// timeProbe returns host ns and allocations per operation.
func timeProbe(p probe, pe *probeEnv, budget time.Duration) (ns, allocs float64) {
	run := p.make(pe)
	measure := func(n int) (time.Duration, uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		run(n)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		return d, m1.Mallocs - m0.Mallocs
	}
	// Grow the batch until one takes a fiftieth of the budget.
	n := max(p.fixed, 1)
	for p.fixed == 0 && n < 1<<24 {
		if d, _ := measure(n); d >= budget/50 {
			break
		}
		n *= 2
	}
	var spent, cost time.Duration
	var ops, mallocs uint64
	for spent < budget {
		d, m := measure(n)
		spent += d
		if p.fixed != 0 {
			d3, m3 := measure(3 * n)
			spent += d3
			d, m, ops = d3-d, m3-m, ops+uint64(n)
		}
		ops += uint64(n)
		cost += d
		mallocs += m
	}
	return float64(cost.Nanoseconds()) / float64(ops), float64(mallocs) / float64(ops)
}

// runProbes runs every probe for the given time each.
func runProbes(seed uint64, each time.Duration) map[string]float64 {
	pe := newProbeEnv(seed)
	out := map[string]float64{}
	for _, p := range probes {
		ns, allocs := timeProbe(p, pe, each)
		out["probe."+p.name+".ns"] = ns
		out["probe."+p.name+".allocs"] = allocs
	}
	return out
}
