package load

import (
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/machine"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// shardedNet is a minimal multi-server topology: one native client
// machine and n native server machines on a switch (the load package
// must not depend on the cluster package, which has its own tests).
type shardedNet struct {
	k      *sim.Kernel
	client appnet.Runtime
	srvs   []*memcached.Server
	ips    []netstack.Ipv4Addr
}

func newShardedNet(t *testing.T, servers, clientCores int) *shardedNet {
	t.Helper()
	k := sim.NewKernel()
	sw := machine.NewSwitch(k)
	mask := netstack.IP(255, 255, 255, 0)

	build := func(name string, mac byte, ip netstack.Ipv4Addr, cores int) appnet.Runtime {
		m := machine.New(k, machine.DefaultConfig(name, cores))
		nic := machine.NewNIC(m, machine.MAC{0x02, 0xaa, 0, 0, 0, mac})
		sw.Connect(nic)
		mgrs := make([]*event.Manager, cores)
		for i, c := range m.Cores {
			mgrs[i] = event.NewManager(c, event.DefaultCosts())
		}
		st := netstack.NewStack(m, mgrs, netstack.Config{})
		itf := st.AddInterface(nic, ip, mask)
		return appnet.NewNative(st, itf)
	}

	n := &shardedNet{k: k}
	n.client = build("client", 1, netstack.IP(10, 0, 0, 1), clientCores)
	for s := 0; s < servers; s++ {
		ip := netstack.IP(10, 0, 0, byte(10+s))
		rt := build("server", byte(10+s), ip, 1)
		srv := memcached.NewServer(memcached.NewRCUStore(), 1)
		if err := srv.Serve(rt); err != nil {
			t.Fatal(err)
		}
		n.srvs = append(n.srvs, srv)
		n.ips = append(n.ips, ip)
	}
	return n
}

func (n *shardedNet) shard(s int) Shard {
	ip := n.ips[s]
	return Shard{
		Srv: n.srvs[s],
		Dial: func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn)) {
			n.client.Dial(c, ip, memcached.Port, cb, onConnect)
		},
	}
}

func TestMutilateShardedRoutesAndCompletes(t *testing.T) {
	n := newShardedNet(t, 2, 4)
	shards := []Shard{n.shard(0), n.shard(1)}
	route := func(key []byte) int { return int(key[len(key)-1]) % 2 }

	cfg := DefaultMutilate(40000)
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Duration = 80 * sim.Millisecond
	res := RunMutilateSharded(n.client, shards, route, cfg)

	if res.Samples < 1000 {
		t.Fatalf("too few samples: %+v", res)
	}
	if res.AchievedRPS < 0.9*res.TargetRPS {
		t.Fatalf("achieved %.0f of target %.0f", res.AchievedRPS, res.TargetRPS)
	}
	// Both shards must have carried traffic and hold disjoint key shares.
	for s, srv := range n.srvs {
		if srv.Requests == 0 {
			t.Errorf("shard %d served nothing", s)
		}
		if srv.Store.Len() == 0 {
			t.Errorf("shard %d store empty - prepopulation not split", s)
		}
	}
	work := NewWorkload(cfg.ETC, cfg.Seed)
	want := []int{0, 0}
	for _, key := range work.Keys {
		want[route(key)]++
	}
	for s, srv := range n.srvs {
		// Stores may exceed the prepopulated count only via SETs of new
		// values, never by holding another shard's keys: key counts must
		// exactly match the routed share.
		if srv.Store.Len() != want[s] {
			t.Errorf("shard %d holds %d keys, routed share is %d", s, srv.Store.Len(), want[s])
		}
	}
}

func TestMutilateSingleShardMatchesUnsharded(t *testing.T) {
	// The single-shard path is the compatibility wrapper; nil route must
	// behave identically to explicit shard-0 routing.
	a := newShardedNet(t, 1, 4)
	cfg := DefaultMutilate(30000)
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Duration = 60 * sim.Millisecond
	resA := RunMutilateSharded(a.client, []Shard{a.shard(0)}, nil, cfg)

	b := newShardedNet(t, 1, 4)
	resB := RunMutilateSharded(b.client, []Shard{b.shard(0)}, func([]byte) int { return 0 }, cfg)

	if resA.Samples != resB.Samples || resA.AchievedRPS != resB.AchievedRPS || resA.Mean != resB.Mean {
		t.Fatalf("nil route diverged from explicit zero route:\n%v\n%v", resA, resB)
	}
}
