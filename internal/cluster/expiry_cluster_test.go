package cluster

import (
	"fmt"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// Cluster-level expiry regressions: a value that expires at its origin
// must not be served anywhere - not from any core's hot-key cache, and
// not resurrected into a new backend by the migration stream.

// TestHotKeyCacheExpiredAtOriginMisses: the hot-key cache's own TTL is
// set far beyond the horizon, so only the origin-expiry carried in the
// GET response extras can stop the cached copies. Every core promotes
// and fills the key before its 1-second deadline; after the deadline
// every core must miss, with revalidation disabled so nothing else can
// rescue the reads.
func TestHotKeyCacheExpiredAtOriginMisses(t *testing.T) {
	cl, cli := newHotCluster(1, HotKeyOptions{
		PromoteMin:      1,
		ttl:             time10s,
		revalidateEvery: -1,
	})
	front := cl.Sys.Frontend()
	mgrs := front.Runtime.Mgrs()
	key, val := []byte("expiring-hot-key"), []byte("short-lived")

	setOK := false
	front.Spawn(func(c *event.Ctx) {
		cli.SetWithExpiry(c, key, val, 0, 1, func(c *event.Ctx, r Response) {
			setOK = r.OK()
		})
	})

	// Before the deadline: promote and fill on every core.
	preHits := make([]int, len(mgrs))
	for corei := range mgrs {
		corei := corei
		mgrs[corei].After(100*sim.Millisecond, func(c *event.Ctx) {
			var next func(c *event.Ctx, n int)
			next = func(c *event.Ctx, n int) {
				if n == 0 {
					return
				}
				cli.Get(c, key, func(c *event.Ctx, r Response) {
					if r.OK() && string(r.Value) == string(val) {
						preHits[corei]++
					}
					next(c, n-1)
				})
			}
			next(c, 3)
		})
	}

	// After the deadline (1s) but far inside the cache TTL (10s): every
	// core's read must miss.
	postMiss := make([]int, len(mgrs))
	for corei := range mgrs {
		corei := corei
		mgrs[corei].After(2*sim.Second, func(c *event.Ctx) {
			cli.Get(c, key, func(c *event.Ctx, r Response) {
				if !r.OK() {
					postMiss[corei]++
				} else {
					t.Errorf("core %d read expired key: %q", corei, r.Value)
				}
			})
		})
	}

	cl.Sys.K.RunUntil(3 * sim.Second)

	if !setOK {
		t.Fatal("setup write not acked")
	}
	for corei := range mgrs {
		if preHits[corei] != 3 {
			t.Fatalf("core %d: %d of 3 pre-expiry reads served", corei, preHits[corei])
		}
		if postMiss[corei] != 1 {
			t.Fatalf("core %d: post-expiry read did not miss", corei)
		}
	}
	st := cli.HotKeyStats()
	if st.Hits == 0 {
		t.Fatalf("cache never engaged, test proves nothing: %+v", st)
	}
	if st.OriginExpired == 0 {
		t.Fatalf("no cached copy was dropped for origin expiry: %+v", st)
	}
	requireHome(t, cli)
}

// TestMigrationDoesNotResurrectExpired: entries that expired at the
// source - but are still physically resident there, expiry being lazy -
// must be filtered out of the migration stream, not handed to the new
// backend as live data.
func TestMigrationDoesNotResurrectExpired(t *testing.T) {
	cl := NewCluster(3, Options{})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	m := NewMigrator(cl, front)
	k := cl.Sys.K

	const nKeys = 400
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("exp-key-%d-%d", i, i*2654435761))
	}
	// Odd keys expire after 1 second; even keys never do.
	acked := 0
	front.Spawn(func(c *event.Ctx) {
		for i, key := range keys {
			var exptime int64
			if i%2 == 1 {
				exptime = 1
			}
			cli.SetWithExpiry(c, key, []byte(fmt.Sprintf("v-%d", i)), 0, exptime, func(c *event.Ctx, r Response) {
				if r.OK() {
					acked++
				}
			})
		}
	})
	k.RunUntil(k.Now() + 40*sim.Millisecond)
	if acked != nKeys {
		t.Fatalf("populate: %d of %d writes acked", acked, nKeys)
	}

	// Cross the deadline with no traffic: the expired entries stay
	// resident at their owners (lazy expiry never ran for them).
	k.RunUntil(k.Now() + 2*sim.Second)
	resident := 0
	for i, key := range keys {
		if i%2 == 0 {
			continue
		}
		for _, b := range cl.Backends {
			if _, has := b.Srv.Store.Get(string(key)); has {
				resident++
				break
			}
		}
	}
	if resident == 0 {
		t.Fatal("no expired entry still resident; the stream filter is not being exercised")
	}

	m.Join(1)
	mig := waitMigration(t, cl, m, 300*sim.Millisecond)
	if mig.Aborted || mig.Kind != "join" {
		t.Fatalf("migration %+v not a completed join", mig)
	}

	// The newcomer must hold its share of the live keys and not one
	// expired entry.
	newIdx := len(cl.Backends) - 1
	store := cl.Backends[newIdx].Srv.Store
	streamedLive := 0
	for i, key := range keys {
		_, has := store.Get(string(key))
		if i%2 == 1 {
			if has {
				t.Fatalf("expired key %q resurrected onto the new backend", key)
			}
			continue
		}
		owned := false
		for _, b := range cl.ReplicaSet(key) {
			if b == newIdx {
				owned = true
			}
		}
		if owned && !has {
			t.Fatalf("live key %q owned by the newcomer but not streamed", key)
		}
		if has {
			streamedLive++
		}
	}
	if streamedLive == 0 {
		t.Fatal("stream moved no live keys; filter test proves nothing")
	}

	// Through the client: live keys read OK, expired keys miss.
	var live, dead [][]byte
	for i, key := range keys {
		if i%2 == 0 {
			live = append(live, key)
		} else {
			dead = append(dead, key)
		}
	}
	ok, miss, netErr := readAll(cl, cli, live)
	if ok != len(live) || netErr != 0 {
		t.Fatalf("live reads after join: %d ok, %d misses, %d net errors", ok, miss, netErr)
	}
	ok, miss, netErr = readAll(cl, cli, dead)
	if miss != len(dead) || netErr != 0 {
		t.Fatalf("expired reads after join: %d ok, %d misses, %d net errors (want all misses)", ok, miss, netErr)
	}
	requireHome(t, cli)
}
