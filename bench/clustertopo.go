package main

import (
	"fmt"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// clusterTopo is the replicated deployment: four two-core native
// backends on one switch, and one hosted (GPOS) frontend whose cores run
// the benchmark's arrivals through a cluster.Client with its default
// batching and the hot-key cache on.
type clusterTopo struct {
	e      *engine
	cl     *cluster.Cluster
	cli    *cluster.Client
	mgrs   []*event.Manager
	stores []*memcached.BoundedStore
	next   int
}

const (
	clusterBackends    = 4
	clusterBackendCore = 2
	prepopWindow       = 8
)

func buildCluster(sp *spec, seed uint64, traced bool) (*topology, error) {
	ct := &clusterTopo{}
	pop := newPopulation(seed, sp)
	var tr *tracer
	// The store factory runs inside NewCluster, before there is a kernel
	// to ask the time of.
	var k *sim.Kernel
	clock := func() sim.Time {
		if k == nil {
			return 0
		}
		return k.Now()
	}
	newStore := func() memcached.Store {
		var s memcached.Store
		if sp.bounded {
			b := memcached.NewBoundedStore(sp.budgetBytes, memcached.EvictLRU, clock)
			ct.stores = append(ct.stores, b)
			s = b
		} else {
			s = memcached.NewRCUStore()
		}
		if traced {
			s = &tracedStore{Store: s}
		}
		return s
	}
	ct.cl = cluster.NewCluster(clusterBackends, cluster.Options{
		CoresPerBackend: clusterBackendCore,
		FrontendCores:   sp.frontCores,
		Replicas:        sp.replicas,
		HotKey:          cluster.HotKeyOptions{Enable: true},
		Store:           newStore,
	})
	k = ct.cl.Sys.K
	front := ct.cl.Sys.Frontend()
	if traced {
		tr = newTracer(k, pop, true)
		for _, b := range ct.cl.Backends {
			b.Srv.Store.(*tracedStore).t = tr
		}
		front.Runtime = &tracedRuntime{Runtime: front.Runtime, t: tr}
	}
	ct.cli = cluster.NewClientWithOptions(ct.cl, front, cluster.ClientOptions{})
	ct.mgrs = front.Runtime.Mgrs()
	ct.e = newEngine(k, sp, pop, seed, tr)
	ct.e.tgt = ct

	// Prepopulate through the client, so every key reaches its whole
	// replica set by acknowledged quorum writes; prepopWindow writes are
	// kept in flight.
	stored, issued := 0, 0
	var issue func(c *event.Ctx)
	issue = func(c *event.Ctx) {
		if issued == len(pop.keys) {
			return
		}
		i := issued
		issued++
		ct.cli.Set(c, pop.keys[i], pop.value(i, 0), 0, func(c *event.Ctx, r cluster.Response) {
			if r.OK() {
				stored++
			}
			issue(c)
		})
	}
	for w := 0; w < prepopWindow; w++ {
		ct.mgrs[w%len(ct.mgrs)].Spawn(issue)
	}
	for deadline := k.Now() + 2*sim.Second; stored < len(pop.keys) && k.Now() < deadline; {
		k.RunFor(sim.Millisecond)
	}
	if stored < len(pop.keys) {
		return nil, fmt.Errorf("prepopulation stored %d of %d keys", stored, len(pop.keys))
	}
	return &topology{e: ct.e, cl: ct}, nil
}

// submit implements target: arrivals take the frontend's cores in turn.
func (ct *clusterTopo) submit(a *arrival) {
	mgr := ct.mgrs[ct.next%len(ct.mgrs)]
	ct.next++
	mgr.Spawn(func(c *event.Ctx) {
		e, tr := ct.e, ct.e.tr
		sp := tr.begin(spLoadGen, c, int32(a.id))
		e.submitted(c, a)
		a.call = vnow(c)
		if tr != nil {
			tr.cur = a
		}
		call := tr.begin(spClusterClient, c, -1)
		switch {
		case a.isSet:
			k := a.keys[0]
			ct.cli.Set(c, e.pop.keys[k], e.pop.value(k, a.ver), 0, func(c *event.Ctx, r cluster.Response) {
				sp := tr.begin(spLoadGen, c, int32(a.id))
				e.wrote(a, r.Status)
				e.complete(c, a)
				tr.end(sp, c)
			})
		case len(a.keys) > 1:
			keys := make([][]byte, len(a.keys))
			for i, k := range a.keys {
				keys[i] = e.pop.keys[k]
			}
			ct.cli.GetMulti(c, keys, func(c *event.Ctx, rs []cluster.Response) {
				sp := tr.begin(spLoadGen, c, int32(a.id))
				for i, r := range rs {
					e.read(a, a.keys[i], r.Status, r.Value)
				}
				e.complete(c, a)
				tr.end(sp, c)
			})
		default:
			ct.cli.Get(c, e.pop.keys[a.keys[0]], func(c *event.Ctx, r cluster.Response) {
				sp := tr.begin(spLoadGen, c, int32(a.id))
				e.read(a, a.keys[0], r.Status, r.Value)
				e.complete(c, a)
				tr.end(sp, c)
			})
		}
		tr.end(call, c)
		if tr != nil {
			tr.cur = nil
		}
		tr.end(sp, c)
	})
}
