package experiments

import (
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// TestTextVsBinaryThroughputParity pins the acceptance bound for the
// text path: at equal offered load against identical clusters, both
// protocols serve at least 90 % of the offered load with samples
// recorded, and text keeps at least half of binary's throughput (the
// per-byte tokenization cost must not halve it), at every backend count.
func TestTextVsBinaryThroughputParity(t *testing.T) {
	t.Parallel()
	requireHeld(t, "textproto", "binary achieved", "text achieved", "text throughput")
}

// TestTextSessionAgainstCluster is the acceptance criterion's session
// check end-to-end: a text-mode client session (set/get/delete, with
// and without noreply) against a backend of the sharded cluster, over
// the simulated network, answered with byte-exact standard memcached
// responses.
func TestTextSessionAgainstCluster(t *testing.T) {
	cl := cluster.New(4, 1)
	gen := cl.AddLoadGenerator(2)

	key := "cluster:key"
	target := cl.Ring.Lookup([]byte(key))
	ip := cl.Backends[target].Node.IP()

	script := "set cluster:key 3 0 7\r\ncluster\r\n" +
		"get cluster:key\r\n" +
		"set cluster:quiet 0 0 1 noreply\r\nq\r\n" +
		"get cluster:quiet\r\n" +
		"delete cluster:quiet noreply\r\n" +
		"delete cluster:key\r\n" +
		"get cluster:key cluster:quiet\r\n"
	want := "STORED\r\n" +
		"VALUE cluster:key 3 7\r\ncluster\r\nEND\r\n" +
		"VALUE cluster:quiet 0 1\r\nq\r\nEND\r\n" +
		"DELETED\r\n" +
		"END\r\n"

	var got []byte
	gen.Spawn(func(c *event.Ctx) {
		gen.Runtime.Dial(c, ip, memcached.Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				got = append(got, payload.CopyOut()...)
			},
		}, func(c *event.Ctx, conn appnet.Conn) {
			conn.Send(c, iobuf.Wrap([]byte(script)))
		})
	})
	cl.Sys.K.RunUntil(100 * sim.Millisecond)

	if string(got) != want {
		t.Fatalf("cluster text session:\n got %q\nwant %q", got, want)
	}
	if cl.Backends[target].Srv.Requests == 0 {
		t.Fatal("target backend served nothing")
	}
}

// TestRunMutilateTextDrivesEveryShard asserts the text load generator
// routes and completes operations across all shards of a cluster, like
// the binary one does.
func TestRunMutilateTextDrivesEveryShard(t *testing.T) {
	cl, gen, shards := newShardedTarget(2)
	cfg := load.DefaultMutilate(8000)
	cfg.Connections = 2
	cfg.Duration = 40 * sim.Millisecond
	res := load.RunMutilateText(gen, shards, cl.Ring.Lookup, cfg)
	if res.AchievedRPS < 0.8*cfg.TargetRPS {
		t.Fatalf("achieved %.0f of %.0f offered", res.AchievedRPS, cfg.TargetRPS)
	}
	for i, b := range cl.Backends {
		if b.Srv.Requests == 0 {
			t.Fatalf("backend %d served no requests", i)
		}
	}
}
