package cluster

import (
	"fmt"
	"testing"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// newHotCluster boots a cluster with the hot-key cache enabled on every
// client, tuned so tests promote keys immediately.
func newHotCluster(backends int, hot HotKeyOptions) (*Cluster, *Client) {
	hot.Enable = true
	cl := NewCluster(backends, Options{
		Replicas:      1,
		FrontendCores: 4,
		HotKey:        hot,
	})
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{})
	return cl, cli
}

// TestHotKeyCacheServesLocally: once a key is promoted and filled,
// further reads are answered from the core's cache without touching the
// backend.
func TestHotKeyCacheServesLocally(t *testing.T) {
	cl, cli := newHotCluster(1, HotKeyOptions{PromoteMin: 2, ttl: sim.Second})
	front := cl.Sys.Frontend()
	key, val := []byte("the-hot-key"), []byte("the-value")

	var got []string
	front.Spawn(func(c *event.Ctx) {
		cli.Set(c, key, val, 0, func(c *event.Ctx, r Response) {
			var next func(c *event.Ctx, n int)
			next = func(c *event.Ctx, n int) {
				if n == 0 {
					return
				}
				cli.Get(c, key, func(c *event.Ctx, r Response) {
					if r.OK() {
						got = append(got, string(r.Value))
					}
					next(c, n-1)
				})
			}
			next(c, 10)
		})
	})
	cl.Sys.K.RunUntil(sim.Second)

	if len(got) != 10 {
		t.Fatalf("%d of 10 reads completed", len(got))
	}
	for i, v := range got {
		if v != string(val) {
			t.Fatalf("read %d: got %q want %q", i, v, val)
		}
	}
	st := cli.HotKeyStats()
	if st.Fills == 0 || st.Hits == 0 {
		t.Fatalf("cache never engaged: %+v", st)
	}
	// The chain ran on one core: after promotion (2 misses) and one
	// fill, the remaining reads must be hits.
	if st.Hits < 7 {
		t.Fatalf("only %d cache hits across 10 reads", st.Hits)
	}
}

// TestHotKeyWriteInvalidationCoherence: a Get issued after a Set's
// acknowledgment, on any core, must observe the written value - the
// write path invalidates synchronously on submit and re-stamps the
// cache from the ack, so an acked write is never shadowed by an older
// cached copy. Runs a read-modify-write chain per core concurrently
// (every core hammering its own key) plus all cores hammering one
// shared key, which is what -race exercises against the cross-core
// invalidation broadcasts.
func TestHotKeyWriteInvalidationCoherence(t *testing.T) {
	cl, cli := newHotCluster(2, HotKeyOptions{PromoteMin: 1, ttl: sim.Second})
	front := cl.Sys.Frontend()
	mgrs := front.Runtime.Mgrs()
	shared := []byte("shared-hot-key")
	sharedWritten := map[string]bool{}

	const rounds = 30
	type coreResult struct {
		reads  int
		stale  int
		shared int
	}
	results := make([]coreResult, len(mgrs))
	for corei := range mgrs {
		corei := corei
		key := []byte(fmt.Sprintf("core-key-%d", corei))
		var round func(c *event.Ctx, n int)
		round = func(c *event.Ctx, n int) {
			if n >= rounds {
				return
			}
			want := fmt.Sprintf("v-%d-%d", corei, n)
			cli.Set(c, key, []byte(want), 0, func(c *event.Ctx, r Response) {
				if !r.OK() {
					t.Errorf("core %d round %d: set failed %x", corei, n, r.Status)
					return
				}
				cli.Get(c, key, func(c *event.Ctx, r Response) {
					results[corei].reads++
					if !r.OK() || string(r.Value) != want {
						results[corei].stale++
					}
					// Interleave a shared-key write+read: concurrent writers
					// race, so the read must see *a* written value (never a
					// torn one), not necessarily this core's.
					sv := fmt.Sprintf("s-%d-%d", corei, n)
					sharedWritten[sv] = true
					cli.Set(c, shared, []byte(sv), 0, func(c *event.Ctx, r Response) {
						cli.Get(c, shared, func(c *event.Ctx, r Response) {
							if r.OK() && sharedWritten[string(r.Value)] {
								results[corei].shared++
							}
							round(c, n+1)
						})
					})
				})
			})
		}
		mgrs[corei].Spawn(func(c *event.Ctx) { round(c, 0) })
	}
	cl.Sys.K.RunUntil(2 * sim.Second)

	for corei, res := range results {
		if res.reads != rounds {
			t.Fatalf("core %d: %d of %d rounds completed", corei, res.reads, rounds)
		}
		if res.stale != 0 {
			t.Fatalf("core %d: %d reads missed their own acked write", corei, res.stale)
		}
		if res.shared != rounds {
			t.Fatalf("core %d: %d of %d shared reads returned a written value", corei, res.shared, rounds)
		}
	}
	st := cli.HotKeyStats()
	if st.Invalidations == 0 {
		t.Fatalf("writes never invalidated the cache: %+v", st)
	}
}

// TestNoStaleHitAcrossHandoff: entries cached before a migration must
// not be served across the cutover. The TTL is set far beyond the test
// horizon so only the handoff flush + bypass can protect the reads:
// another (uncached) client overwrites every key during the
// dual-routing window, and every key the plan moved must read back the
// new value afterwards.
func TestNoStaleHitAcrossHandoff(t *testing.T) {
	cl, cli := newHotCluster(2, HotKeyOptions{
		PromoteMin:      1,
		ttl:             time10s,
		revalidateEvery: -1, // revalidation must not mask a missing flush
	})
	front := cl.Sys.Frontend()
	rogue := NewClientWithOptions(cl, front, ClientOptions{HotKey: HotKeyOptions{Disable: true}})
	m := NewMigrator(cl, front)

	const nKeys = 300
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("handoff-key-%d-%d", i, i*2654435761))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("old-%d", i)) })

	// Warm the cache: two read passes so every key is promoted and
	// filled on the issuing core.
	for pass := 0; pass < 2; pass++ {
		if ok, miss, netErr := readAll(cl, cli, keys); ok != nKeys || miss != 0 || netErr != 0 {
			t.Fatalf("warm pass %d: %d ok %d miss %d netErr", pass, ok, miss, netErr)
		}
	}
	if cli.HotKeyStats().Fills == 0 {
		t.Fatal("warm passes filled nothing")
	}

	// Capture the migration plan as the window opens, to know which
	// keys actually moved.
	var moved []MoveRange
	cl.WatchHandoff(func(pending []MoveRange) {
		moved = append([]MoveRange(nil), pending...)
	})
	m.Join(1)
	if len(moved) == 0 {
		t.Fatal("join opened no handoff window")
	}

	// Mid-window: the rogue client overwrites every key (dual-routed,
	// so both old and new owners see it).
	acked := 0
	front.Spawn(func(c *event.Ctx) {
		for i, key := range keys {
			val := []byte(fmt.Sprintf("new-%d", i))
			rogue.Set(c, key, val, 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					acked++
				}
			})
		}
	})
	cl.Sys.K.RunFor(20 * sim.Millisecond)
	if acked != nKeys {
		t.Fatalf("mid-window rewrites: %d of %d acked", acked, nKeys)
	}
	waitMigration(t, cl, m, 300*sim.Millisecond)

	// Post-cutover reads: a key inside a moved range served from a
	// pre-handoff cache entry would still read "old-<i>".
	coveredKeys, staleMoved := 0, 0
	got := make([]string, nKeys)
	front.Spawn(func(c *event.Ctx) {
		for i, key := range keys {
			i := i
			cli.Get(c, key, func(c *event.Ctx, r Response) {
				if r.OK() {
					got[i] = string(r.Value)
				}
			})
		}
	})
	cl.Sys.K.RunFor(20 * sim.Millisecond)
	for i, key := range keys {
		h := ringHash(key)
		covered := false
		for _, r := range moved {
			if r.Contains(h) {
				covered = true
				break
			}
		}
		if !covered {
			continue
		}
		coveredKeys++
		if got[i] != fmt.Sprintf("new-%d", i) {
			staleMoved++
			t.Errorf("moved key %q read %q after cutover, want %q", key, got[i], fmt.Sprintf("new-%d", i))
		}
	}
	if coveredKeys == 0 {
		t.Fatal("no test key fell inside a moved range")
	}
	st := cli.HotKeyStats()
	if st.Flushes == 0 {
		t.Fatalf("handoff flushed nothing: %+v", st)
	}
	t.Logf("%d keys moved, %d flushed cache entries, %d handoff bypasses", coveredKeys, st.Flushes, st.HandoffBypass)
}

const time10s = 10 * sim.Second

// TestHotKeyDeleteNotResurrectedByRacingFill: a GET whose response is
// still in flight when the same core deletes the key must not fill the
// cache with the pre-delete value - the cluster's delete log stands the
// fill down, so read-your-own-delete holds even though a deleted key
// has no CAS for the monotonic put guard to compare.
func TestHotKeyDeleteNotResurrectedByRacingFill(t *testing.T) {
	cl := NewCluster(1, Options{
		FrontendCores: 2,
		HotKey:        HotKeyOptions{Enable: true, PromoteMin: 1, ttl: time10s, revalidateEvery: -1},
	})
	// poolSize 1 forces the GET and the DELETE onto one connection, so
	// the server answers the GET (with the value) before applying the
	// delete - the exact interleaving that used to resurrect the value.
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{poolSize: 1})
	front := cl.Sys.Frontend()
	key := []byte("doomed-key")

	var final *Response
	front.Spawn(func(c *event.Ctx) {
		cli.Set(c, key, []byte("v"), 0, func(c *event.Ctx, r Response) {
			if !r.OK() {
				t.Error("set failed")
				return
			}
			// GET (fill armed: PromoteMin 1) and DELETE back to back; the
			// GET's OK response arrives after the Delete is logged.
			cli.Get(c, key, nil)
			cli.Delete(c, key, func(c *event.Ctx, r Response) {
				if !r.OK() {
					t.Errorf("delete failed: %x", r.Status)
				}
			})
		})
	})
	cl.Sys.K.RunFor(50 * sim.Millisecond)
	front.Spawn(func(c *event.Ctx) {
		cli.Get(c, key, func(c *event.Ctx, r Response) { final = keep(r) })
	})
	cl.Sys.K.RunFor(50 * sim.Millisecond)

	if final == nil {
		t.Fatal("final read never completed")
	}
	if final.Status != 0x0001 { // memcached.StatusKeyNotFound
		t.Fatalf("deleted key served status %#x value %q - racing fill resurrected it", final.Status, final.Value)
	}
}

// TestHotKeyOtherClientDeleteStandsDownFill: the delete log is the
// cluster's, not a client's, so another client's Delete issued while a
// cached client's GET is in flight stands that GET's fill down too: the
// cached client's next read goes to the store and finds the key gone.
func TestHotKeyOtherClientDeleteStandsDownFill(t *testing.T) {
	cl, cached := newHotCluster(1, HotKeyOptions{PromoteMin: 1, ttl: time10s, revalidateEvery: -1})
	front := cl.Sys.Frontend()
	other := NewClient(cl, front)
	key := []byte("shared-doomed-key")

	acked := false
	front.Spawn(func(c *event.Ctx) {
		cached.Set(c, key, []byte("v"), 0, func(c *event.Ctx, r Response) { acked = r.OK() })
	})
	cl.Sys.K.RunFor(50 * sim.Millisecond)
	if !acked {
		t.Fatal("set failed")
	}
	deleted := false
	front.Spawn(func(c *event.Ctx) {
		// The GET goes out first, on the cached client's open
		// connection, and answers "v"; the Delete is issued before that
		// answer arrives.
		cached.Get(c, key, nil)
		other.Delete(c, key, func(c *event.Ctx, r Response) { deleted = r.OK() })
	})
	cl.Sys.K.RunFor(50 * sim.Millisecond)
	if !deleted {
		t.Fatal("delete failed")
	}
	var final *Response
	front.Spawn(func(c *event.Ctx) {
		cached.Get(c, key, func(c *event.Ctx, r Response) { final = keep(r) })
	})
	cl.Sys.K.RunFor(50 * sim.Millisecond)
	if final == nil {
		t.Fatal("final read never completed")
	}
	if final.Status != memcached.StatusKeyNotFound {
		t.Fatalf("deleted key served status %#x value %q - another client's delete did not stand the fill down", final.Status, final.Value)
	}
}

// TestHotKeyCrossCoreDeleteVsRacingRestamp: a Delete issued on one core
// while another core's Set is still in flight must not be undone by the
// Set's ack re-stamping the deleted value into the deleter's cache -
// the delete log is cluster-wide, so a delete from ANY core stands down
// the re-stamp of every Set issued before it. The invariant checked
// is cache-vs-store agreement: whatever order the two writes reached
// the server in, the deleter core's next read must match the
// authoritative store, never a cache-resurrected value.
func TestHotKeyCrossCoreDeleteVsRacingRestamp(t *testing.T) {
	cl, cli := newHotCluster(1, HotKeyOptions{PromoteMin: 1, ttl: time10s, revalidateEvery: -1})
	front := cl.Sys.Frontend()
	mgrs := front.Runtime.Mgrs()
	k := cl.Sys.K

	// The damaging interleaving needs the delete to hit the wire after
	// the SET reached the server but before the SET's ack returns; the
	// exact offset depends on modeled link and stack latencies, so sweep
	// the delete across the round trip - every round must agree with the
	// authoritative store whichever side of the race it lands on.
	for delayUs := 1; delayUs <= 14; delayUs++ {
		key := []byte(fmt.Sprintf("cross-core-key-%d", delayUs))

		// Warm the key hot on core 1 (the deleter) so a re-stamp would be
		// admitted there, and open core 0's pool so its SET goes straight
		// out instead of waiting behind a TCP dial.
		warmed := 0
		mgrs[1].Spawn(func(c *event.Ctx) {
			cli.Set(c, key, []byte("v1"), 0, func(c *event.Ctx, r Response) {
				cli.Get(c, key, func(c *event.Ctx, r Response) {
					if r.OK() {
						warmed++
					}
				})
			})
		})
		k.RunFor(10 * sim.Millisecond)
		mgrs[0].Spawn(func(c *event.Ctx) {
			cli.Get(c, key, func(c *event.Ctx, r Response) {
				if r.OK() {
					warmed++
				}
			})
		})
		k.RunFor(10 * sim.Millisecond)
		if warmed != 2 {
			t.Fatalf("delay %dus: warmup %d of 2 reads ok", delayUs, warmed)
		}

		mgrs[0].Spawn(func(c *event.Ctx) { cli.Set(c, key, []byte("v2"), 0, nil) })
		delay := sim.Time(delayUs) * sim.Microsecond
		k.After(delay, func() {
			mgrs[1].Spawn(func(c *event.Ctx) { cli.Delete(c, key, nil) })
		})
		k.RunFor(10 * sim.Millisecond)

		var got *Response
		mgrs[1].Spawn(func(c *event.Ctx) {
			cli.Get(c, key, func(c *event.Ctx, r Response) { got = keep(r) })
		})
		k.RunFor(10 * sim.Millisecond)
		if got == nil {
			t.Fatalf("delay %dus: final read never completed", delayUs)
		}
		stored, inStore := cl.Backends[0].Srv.Store.Get(string(key))
		inStore = inStore && !stored.Tombstone() // a Delete's tombstone holds no value
		switch {
		case inStore && (!got.OK() || string(got.Value) != string(stored.Value)):
			t.Fatalf("delay %dus: store holds %q but core 1 read status %#x value %q",
				delayUs, stored.Value, got.Status, got.Value)
		case !inStore && got.OK():
			t.Fatalf("delay %dus: store is empty but core 1 read %q - racing re-stamp resurrected the deleted value",
				delayUs, got.Value)
		}
	}
}

// TestHotKeyClientDisableOverridesCluster: a client asking for
// HotKey.Disable on a cache-enabled cluster must run with no cache
// machinery at all.
func TestHotKeyClientDisableOverridesCluster(t *testing.T) {
	cl, cached := newHotCluster(1, HotKeyOptions{PromoteMin: 1, ttl: time10s})
	front := cl.Sys.Frontend()
	plain := NewClientWithOptions(cl, front, ClientOptions{HotKey: HotKeyOptions{Disable: true}})
	key := []byte("shared-key")

	front.Spawn(func(c *event.Ctx) {
		plain.Set(c, key, []byte("v"), 0, func(c *event.Ctx, r Response) {
			plain.Get(c, key, func(c *event.Ctx, r Response) {
				plain.Get(c, key, nil)
			})
		})
	})
	cl.Sys.K.RunFor(50 * sim.Millisecond)

	if st := plain.HotKeyStats(); st != (HotKeyStats{}) {
		t.Fatalf("disabled client ran cache machinery: %+v", st)
	}
	_ = cached
}
