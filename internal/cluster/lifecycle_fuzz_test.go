package cluster

import (
	"fmt"
	"testing"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// The faults FuzzMultiGetLifecycle injects, one per input.
const (
	faultKill     = iota // a backend dies and is evicted, rounds in flight
	faultTimeout         // a backend goes silent past the request timeout, then returns
	faultTeardown        // the client aborts its connections to a backend
	faultHandoff         // a backend joins and its ranges migrate, reads dual-routed
	numFaults
)

// Keys below fuzzPresent hold fuzzValue(i); the rest of the fuzzKeys
// never exist.
const fuzzKeys, fuzzPresent = 32, 20

func fuzzKey(i int) []byte   { return []byte(fmt.Sprintf("fz-key-%d", i)) }
func fuzzValue(i int) string { return fmt.Sprintf("fz-val-%d", i) }

// FuzzMultiGetLifecycle drives reads through a 1-core hosted frontend to
// four backends at R=2, hot-key cache on, and injects one fault at a
// chosen instant. The first byte picks the fault, the second its victim,
// the third its instant (8 µs steps from the first read). Each further
// byte is a key (its low five bits; duplicates allowed): with the top bit
// set it is read by its own Get, otherwise it joins the current GetMulti,
// which takes up to 8 keys; a GetMulti or Get goes out every 150 µs.
// After the run drains, every callback has fired exactly once, every
// answer sits in its own key's slot - an OK carries that key's value, an
// absent key is never OK, a present key never a miss - and the core's
// read records, rounds and GetMulti calls are all back on their lists.
func FuzzMultiGetLifecycle(f *testing.F) {
	in := func(fault, victim, at byte, keys ...byte) []byte { return append([]byte{fault, victim, at}, keys...) }
	f.Add(in(faultKill, 0, 19, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15))
	f.Add(in(faultTimeout, 0, 16, 0, 21, 0, 21, 3, 3, 22, 5, 6, 7, 8, 9, 23, 24))
	f.Add(in(faultTeardown, 0, 19, 1, 2, 0x83, 4, 5, 0x86, 7, 8, 9, 10, 11))
	f.Add(in(faultHandoff, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		fault, victim, at := int(in[0])%numFaults, int(in[1])%4, sim.Time(in[2])*8*sim.Microsecond
		in = in[3:min(len(in), 3+64)]

		cl := NewCluster(4, Options{FrontendCores: 1, Replicas: 2,
			HotKey: HotKeyOptions{Enable: true, PromoteMin: 2, capacity: 4, revalidateEvery: 3}})
		front := cl.Sys.Frontend()
		cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 2 * sim.Millisecond})
		k := cl.Sys.K
		present := make([][]byte, fuzzPresent)
		for i := range present {
			present[i] = fuzzKey(i)
		}
		populate(t, cl, cli, present, func(i int) []byte { return []byte(fuzzValue(i)) })

		// One read call: its keys, and how often its callback fired.
		type call struct {
			keys  []int
			fired int
		}
		var calls []*call
		var errs []string
		check := func(key int, r Response) {
			switch {
			case r.OK() && (key >= fuzzPresent || string(r.Value) != fuzzValue(key)):
				errs = append(errs, fmt.Sprintf("key %d answered OK with %q", key, r.Value))
			case key < fuzzPresent && r.Status == memcached.StatusKeyNotFound:
				errs = append(errs, fmt.Sprintf("present key %d answered not found", key))
			}
		}
		issue := func(rc *call, single bool) {
			keys := make([][]byte, len(rc.keys))
			for i, key := range rc.keys {
				keys[i] = fuzzKey(key)
			}
			front.Spawn(func(c *event.Ctx) {
				if single {
					cli.Get(c, keys[0], func(c *event.Ctx, r Response) {
						rc.fired++
						check(rc.keys[0], r)
					})
					return
				}
				cli.GetMulti(c, keys, func(c *event.Ctx, rs []Response) {
					rc.fired++
					if len(rs) != len(rc.keys) {
						errs = append(errs, fmt.Sprintf("%d answers for %d keys", len(rs), len(rc.keys)))
						return
					}
					for i, r := range rs {
						check(rc.keys[i], r)
					}
				})
			})
		}
		start := k.Now()
		next := start
		var batch *call
		send := func(c *call, single bool) {
			calls = append(calls, c)
			k.At(next, func() { issue(c, single) })
			next += 150 * sim.Microsecond
		}
		for _, b := range in {
			key := int(b) % fuzzKeys
			if b&0x80 != 0 {
				send(&call{keys: []int{key}}, true)
				continue
			}
			if batch == nil {
				batch = &call{}
			}
			if batch.keys = append(batch.keys, key); len(batch.keys) == 8 {
				send(batch, false)
				batch = nil
			}
		}
		if batch != nil {
			send(batch, false)
		}

		var m *Migrator
		if fault == faultHandoff {
			m = NewMigrator(cl, front)
		}
		k.At(start+at, func() {
			switch fault {
			case faultKill:
				cl.Backends[victim].Node.Kill()
				cl.EvictBackend(victim)
			case faultTimeout:
				node := cl.Backends[victim].Node
				node.Kill()
				k.After(3*sim.Millisecond, node.Revive)
			case faultTeardown:
				front.Spawn(func(c *event.Ctx) { cli.rep(c).dropBackend(c, victim) })
			case faultHandoff:
				m.Join(2)
			}
		})
		k.RunFor(next - start + 100*sim.Millisecond)
		for deadline := k.Now() + 500*sim.Millisecond; m != nil && m.Active() && k.Now() < deadline; {
			k.RunFor(sim.Millisecond)
		}
		k.RunFor(10 * sim.Millisecond) // the rounds the migration's last reads left

		for i, c := range calls {
			if c.fired != 1 {
				errs = append(errs, fmt.Sprintf("read call %d (keys %v) fired %d times", i, c.keys, c.fired))
			}
		}
		if rep, ok := cli.ref.GetIfPresent(0); ok {
			if n := rep.reads.Outstanding(); n != 0 {
				errs = append(errs, fmt.Sprintf("%d read records never came home", n))
			}
			if n := rep.rounds.Outstanding(); n != 0 {
				errs = append(errs, fmt.Sprintf("%d rounds never came home", n))
			}
			if n := rep.batches.Outstanding(); n != 0 {
				errs = append(errs, fmt.Sprintf("%d GetMulti calls never came home", n))
			}
		}
		if len(errs) > 0 {
			t.Fatalf("fault %d on backend %d at +%v: %d violations, first %v", fault, victim, at, len(errs), errs[:min(len(errs), 5)])
		}
	})
}
