package main

import (
	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/gpos"
	"ebbrt/internal/machine"
	"ebbrt/internal/netstack"
)

// counters is a reading of every public counter the layers keep. The
// per-layer metrics are differences of two readings.
type counters struct {
	fired       uint64 // sim.Kernel.Fired
	dispatched  uint64 // sum of event.Manager.Dispatched
	frames      uint64 // sum of NIC TxFrames
	wireBytes   uint64 // sum of NIC TxBytes
	retransmits uint64 // netstack.TcpStats, all interfaces
	persist     uint64
	requests    []uint64 // memcached.Server.Requests, per server
	evictions   uint64   // BoundedStore.Stats, all stores
	overBudget  uint64   // max over stores of peak above budget
	hotHits     uint64   // cluster.Client.HotKeyStats
	hotMisses   uint64
	batchOps    uint64 // cluster.Client.BatchStats
	batchRounds uint64
}

func interfaceOf(rt appnet.Runtime) *netstack.Interface {
	switch rt := unwrapRuntime(rt).(type) {
	case *appnet.Native:
		return rt.Itf
	case *gpos.Runtime:
		return rt.Itf
	}
	return nil
}

func (c *counters) addMachine(mgrs []*event.Manager, nics []*machine.NIC, itf *netstack.Interface) {
	for _, m := range mgrs {
		c.dispatched += m.Dispatched
	}
	for _, n := range nics {
		c.frames += n.TxFrames.N
		c.wireBytes += n.TxBytes.N
	}
	if itf != nil {
		s := itf.TcpStats()
		c.retransmits += s.Retransmits
		c.persist += s.PersistProbes
	}
}

func (t *topology) read() counters {
	var c counters
	if p := t.pair; p != nil {
		c.fired = p.pair.K.Fired()
		for _, rt := range []appnet.Runtime{p.pair.Client, p.pair.Server} {
			itf := interfaceOf(rt)
			c.addMachine(rt.Mgrs(), []*machine.NIC{itf.NIC}, itf)
		}
		c.requests = []uint64{p.srv.Requests}
		return c
	}
	ct := t.cl
	c.fired = ct.cl.Sys.K.Fired()
	for _, n := range ct.cl.Sys.Nodes {
		c.addMachine(n.Runtime.Mgrs(), n.Machine.NICs, interfaceOf(n.Runtime))
	}
	for _, b := range ct.cl.Backends {
		c.requests = append(c.requests, b.Srv.Requests)
	}
	for _, s := range ct.stores {
		st := s.Stats()
		c.evictions += st.Evictions
		if st.PeakBytes > st.BudgetBytes {
			c.overBudget = max(c.overBudget, st.PeakBytes-st.BudgetBytes)
		}
	}
	hk := ct.cli.HotKeyStats()
	c.hotHits, c.hotMisses = hk.Hits, hk.Misses
	bs := ct.cli.BatchStats()
	c.batchOps, c.batchRounds = bs.Ops, bs.Rounds
	return c
}

// sub returns c - o, counter by counter (overBudget is a level, kept).
func (c counters) sub(o counters) counters {
	d := counters{
		fired:       c.fired - o.fired,
		dispatched:  c.dispatched - o.dispatched,
		frames:      c.frames - o.frames,
		wireBytes:   c.wireBytes - o.wireBytes,
		retransmits: c.retransmits - o.retransmits,
		persist:     c.persist - o.persist,
		evictions:   c.evictions - o.evictions,
		overBudget:  c.overBudget,
		hotHits:     c.hotHits - o.hotHits,
		hotMisses:   c.hotMisses - o.hotMisses,
		batchOps:    c.batchOps - o.batchOps,
		batchRounds: c.batchRounds - o.batchRounds,
		requests:    make([]uint64, len(c.requests)),
	}
	for i := range c.requests {
		d.requests[i] = c.requests[i] - o.requests[i]
	}
	return d
}
