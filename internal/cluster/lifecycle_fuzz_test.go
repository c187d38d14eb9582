package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
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
// free lists are all back to Outstanding() == 0.
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
		errs = append(errs, notHome(cli)...)
		if len(errs) > 0 {
			t.Fatalf("fault %d on backend %d at +%v: %d violations, first %v", fault, victim, at, len(errs), errs[:min(len(errs), 5)])
		}
	})
}

// notHome reports, per frontend core of cli, each free list with objects
// still out: read records, rounds, GetMulti calls and write records.
func notHome(cli *Client) []string {
	var errs []string
	for corei := range cli.mgrs {
		rep, ok := cli.ref.GetIfPresent(corei)
		if !ok {
			continue
		}
		for _, l := range []struct {
			what string
			out  int
		}{
			{"read records", rep.reads.Outstanding()},
			{"rounds", rep.rounds.Outstanding()},
			{"GetMulti calls", rep.batches.Outstanding()},
			{"write records", rep.writes.Outstanding()},
		} {
			if l.out != 0 {
				errs = append(errs, fmt.Sprintf("core %d: %d %s never came home", corei, l.out, l.what))
			}
		}
	}
	return errs
}

// requireHome fails t unless every free list of every frontend core of
// cli is back to Outstanding() == 0: a scenario calls it once it has
// drained, so a record, round or call that leaks on its path fails it.
func requireHome(t *testing.T, cli *Client) {
	t.Helper()
	if errs := notHome(cli); len(errs) > 0 {
		t.Fatalf("after the drain: %v", errs)
	}
}

// The kinds of FuzzWriteLifecycle's operations.
const (
	opSet = iota
	opGet
	opDelete
)

// FuzzWriteLifecycle's keys below writeFuzzPresent exist before it
// starts; it names sixteen.
const writeFuzzPresent = 8

func writeFuzzKeyName(i int) []byte { return []byte(fmt.Sprintf("fw-key-%d", i)) }

// FuzzWriteLifecycle drives Sets, Deletes and Gets through a 2-core
// hosted frontend to four backends at R=3, hot-key cache on, so a write's
// hot-key fan-out crosses to the other core and its record may go home
// from there. It injects one of FuzzMultiGetLifecycle's faults: the first
// byte picks it, the second its victim, the third its instant (8 µs steps
// from the first operation). Each further byte is one operation, issued
// 30 µs after the last: its low four bits name the key, bit 4 the core,
// and the top three bits the kind (0-3 Set, 4-6 Get, 7 Delete). After
// the run drains, every callback has fired exactly once; every OK Get
// carried a value written to its own key; a key whose last write is an
// acknowledged Set reads back that write's stamp or a newer one, and one
// whose last write is an acknowledged Delete reads as a miss; and every
// free list on both cores is back to Outstanding() == 0.
func FuzzWriteLifecycle(f *testing.F) {
	// mix spells n operations cycling over keys 0-3 and both cores, their
	// kinds cycling through kinds: with reads among them the keys are
	// promoted, so writes invalidate and re-stamp both cores' caches.
	mix := func(fault, victim, at byte, n int, kinds ...byte) []byte {
		in := []byte{fault, victim, at}
		for i := range n {
			in = append(in, kinds[i%len(kinds)]<<5|byte(i/4%2)<<4|byte(i%4))
		}
		return in
	}
	f.Add(mix(faultKill, 1, 40, 64, 4, 4, 0, 4, 7))
	f.Add(mix(faultTimeout, 2, 30, 64, 4, 0, 4, 4, 0))
	f.Add(mix(faultTeardown, 0, 50, 64, 4, 4, 0, 0, 4, 7))
	f.Add(mix(faultHandoff, 3, 0, 64, 4, 0, 4, 7, 4, 0, 4))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		fault, victim, at := int(in[0])%numFaults, int(in[1])%4, sim.Time(in[2])*8*sim.Microsecond
		in = in[3:min(len(in), 3+64)]
		run := runWriteLifecycle(t, fault, victim, at, in, nil)
		if len(run.errs) == 0 {
			return
		}
		// The world is deterministic and emitting events costs no virtual
		// time, so the same input run again with an audit log fails the
		// same way and tells the failing key's story.
		tape := new(audit.Tape)
		again := runWriteLifecycle(t, fault, victim, at, in, audit.NewLog(tape))
		history := writeFuzzHistory(again, *tape)
		if !slices.Equal(run.errs, again.errs) {
			history = fmt.Sprintf("\nthe audited re-run diverged: %v", again.errs[:min(len(again.errs), 5)]) + history
		}
		t.Fatalf("fault %d on backend %d at +%v: %d violations, first %v%s",
			fault, victim, at, len(run.errs), run.errs[:min(len(run.errs), 5)], history)
	})
}

// writeFuzzOp is one FuzzWriteLifecycle operation: what it did, from
// which core and when, and what came back how often.
type writeFuzzOp struct {
	index, kind, key, core int
	value                  string
	issued                 sim.Time
	fired                  int
	resp                   Response
}

func (o *writeFuzzOp) String() string {
	kind, value := [...]string{opSet: "Set", opGet: "Get", opDelete: "Delete"}[o.kind], o.resp.Value
	if o.kind == opSet {
		value = []byte(o.value)
	}
	return fmt.Sprintf("op %d %s core %d issued %v fired %d status %#x stamp %d value %q",
		o.index, kind, o.core, o.issued, o.fired, o.resp.Status, o.resp.CAS, value)
}

// writeFuzzRun is what one FuzzWriteLifecycle input did: its violations,
// the key the first of them names (-1 when it names none), and every
// operation in the order its core issued it.
type writeFuzzRun struct {
	errs   []string
	badKey int
	issued []*writeFuzzOp
	cl     *Cluster
}

// runWriteLifecycle runs one FuzzWriteLifecycle input on a fresh cluster
// whose events go to log (nil drops them), and reports what broke.
func runWriteLifecycle(t *testing.T, fault, victim int, at sim.Time, in []byte, log *audit.Log) writeFuzzRun {
	cl := NewCluster(4, Options{FrontendCores: 2, Replicas: 3, Audit: log,
		HotKey: HotKeyOptions{Enable: true, PromoteMin: 2, capacity: 4, revalidateEvery: 3}})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 2 * sim.Millisecond})
	k := cl.Sys.K
	present := make([][]byte, writeFuzzPresent)
	for i := range present {
		present[i] = writeFuzzKeyName(i)
	}
	populate(t, cl, cli, present, func(i int) []byte { return []byte(fmt.Sprintf("fw-%d-init", i)) })

	run := writeFuzzRun{badKey: -1, cl: cl}
	fail := func(key int, format string, args ...any) {
		if len(run.errs) == 0 {
			run.badKey = key
		}
		run.errs = append(run.errs, fmt.Sprintf(format, args...))
	}
	// ops in input order; run.issued in the order they were issued, which
	// a busy core can make differ from the schedule.
	var ops []*writeFuzzOp
	owned := func(key int, v []byte) bool { return strings.HasPrefix(string(v), fmt.Sprintf("fw-%d-", key)) }
	start := k.Now()
	for i, b := range in {
		o := &writeFuzzOp{index: i, key: int(b) & 0x0f, core: int(b) >> 4 & 1, kind: opGet}
		switch b >> 5 {
		case 0, 1, 2, 3:
			o.kind, o.value = opSet, fmt.Sprintf("fw-%d-%d", o.key, i)
		case 7:
			o.kind = opDelete
		}
		ops = append(ops, o)
		k.At(start+sim.Time(i)*30*sim.Microsecond, func() {
			cli.mgrs[o.core].Spawn(func(c *event.Ctx) {
				o.issued = c.Now()
				run.issued = append(run.issued, o)
				done := func(c *event.Ctx, r Response) {
					o.fired++
					o.resp = *keep(r)
					if o.kind == opGet && r.OK() && !owned(o.key, r.Value) {
						fail(o.key, "Get of key %d answered OK with %q", o.key, r.Value)
					}
				}
				key := writeFuzzKeyName(o.key)
				switch o.kind {
				case opSet:
					cli.Set(c, key, []byte(o.value), 0, done)
				case opGet:
					cli.Get(c, key, done)
				default:
					cli.Delete(c, key, done)
				}
			})
		})
	}
	next := start + sim.Time(len(in))*30*sim.Microsecond

	var m *Migrator
	if fault == faultHandoff {
		m = NewMigrator(cl, front)
	}
	node := cl.Backends[victim].Node
	k.At(start+at, func() {
		switch fault {
		case faultKill:
			cl.Audit.Emit(k.Now(), int(node.Id), audit.NodeKilled, audit.Fields{"backend": victim})
			node.Kill()
			cl.EvictBackend(victim)
		case faultTimeout:
			cl.Audit.Emit(k.Now(), int(node.Id), audit.NodeKilled, audit.Fields{"backend": victim})
			node.Kill()
			k.After(3*sim.Millisecond, func() {
				cl.Audit.Emit(k.Now(), int(node.Id), audit.NodeRevived, audit.Fields{"backend": victim})
				node.Revive()
			})
		case faultTeardown:
			front.Spawn(func(c *event.Ctx) { cli.rep(c).dropBackend(c, victim) })
		case faultHandoff:
			m.Join(2)
		}
	})
	k.RunFor(next - start + 300*sim.Millisecond)
	for deadline := k.Now() + 500*sim.Millisecond; m != nil && m.Active() && k.Now() < deadline; {
		k.RunFor(sim.Millisecond)
	}
	k.RunFor(10 * sim.Millisecond)

	for i, o := range ops {
		if o.fired != 1 {
			fail(o.key, "op %d (kind %d, key %d) fired %d times", i, o.kind, o.key, o.fired)
		}
	}
	// Read back each key whose last write was acknowledged, in key order,
	// so that a re-run issues them alike. A Delete acknowledges with a
	// miss as well as a hit.
	var last [16]*writeFuzzOp
	for _, o := range run.issued {
		if o.kind != opGet {
			last[o.key] = o
		}
	}
	var reads [16]*Response
	asked := [16]bool{}
	front.Spawn(func(c *event.Ctx) {
		for key, o := range last {
			if o == nil || !o.resp.OK() && (o.kind != opDelete || o.resp.Status != memcached.StatusKeyNotFound) {
				continue
			}
			asked[key] = true
			cli.Get(c, writeFuzzKeyName(key), func(c *event.Ctx, r Response) { reads[key] = keep(r) })
		}
	})
	k.RunFor(20 * sim.Millisecond)
	for key, r := range reads {
		acked := last[key]
		switch {
		case !asked[key]:
		case r == nil:
			fail(key, "read-back of key %d never answered", key)
		case acked.kind == opDelete:
			if r.Status != memcached.StatusKeyNotFound {
				fail(key, "key %d's Delete (op %d) acked, read back status %#x %q at %d",
					key, acked.index, r.Status, r.Value, r.CAS)
			}
		case !r.OK() || r.CAS < acked.resp.CAS:
			fail(key, "key %d acked %q at stamp %d, read back status %#x %q at %d",
				key, acked.value, acked.resp.CAS, r.Status, r.Value, r.CAS)
		case r.CAS == acked.resp.CAS && string(r.Value) != acked.value:
			fail(key, "key %d read back %q at the stamp that wrote %q", key, r.Value, acked.value)
		}
	}
	for _, e := range notHome(cli) {
		fail(-1, "%s", e)
	}
	return run
}

// TestJoinSetInFlightAtSnapshot pins FuzzWriteLifecycle's input
// join-set-in-flight-at-snapshot without the fuzzer. Core 1 Sets key 2
// to fw-2-0 and, 30 µs later, to fw-2-1; a backend joins 2 µs after
// that, while the second Set is still on its way to the old owners, and
// gains key 2. The stream's source takes its snapshot before fw-2-1
// lands there, so the stream copies fw-2-0; the Set's first answer after
// the window opened re-sends it to the new owner, which must end up
// holding fw-2-1 - it is the key's primary after the cutover.
func TestJoinSetInFlightAtSnapshot(t *testing.T) {
	// '2' is a Set (top bits 001) of key 2 from core 1 (bit 4).
	run := runWriteLifecycle(t, faultHandoff, 0, 32*sim.Microsecond, []byte("22"), nil)
	if len(run.errs) > 0 {
		t.Fatalf("%d violations, first %v", len(run.errs), run.errs[0])
	}
	key, joined := writeFuzzKeyName(2), len(run.cl.Backends)-1
	if !slices.Contains(run.cl.ReplicaSet(key), joined) {
		t.Fatal("key 2 did not move to the joined backend - test vacuous")
	}
	if e, ok := run.cl.Backends[joined].Srv.Store.Get(string(key)); !ok || string(e.Value) != "fw-2-1" {
		t.Fatalf("the joined backend holds %+v for key 2, want the second Set's fw-2-1", e)
	}
}

// writeFuzzHistory renders what a failing FuzzWriteLifecycle run did to
// the key of its first violation: that key's operations in issue order,
// the audited events naming it, then the faults and migrations.
func writeFuzzHistory(run writeFuzzRun, tape []audit.Event) string {
	var b strings.Builder
	event := func(e audit.Event) {
		fmt.Fprintf(&b, "\n  %v node %d %s %v", e.Time, e.Node, e.Kind, e.Fields)
	}
	if run.badKey >= 0 {
		name := string(writeFuzzKeyName(run.badKey))
		fmt.Fprintf(&b, "\nkey %d (%s), its operations in issue order:", run.badKey, name)
		for _, o := range run.issued {
			if o.key == run.badKey {
				fmt.Fprintf(&b, "\n  %v", o)
			}
		}
		fmt.Fprintf(&b, "\nevents naming %s:", name)
		named := 0
		for _, e := range tape {
			if e.Fields["key"] == name {
				event(e)
				named++
			}
		}
		if named == 0 {
			b.WriteString(" none")
		}
	}
	b.WriteString("\nfaults and migrations:")
	for _, e := range tape {
		switch e.Kind {
		case audit.NodeKilled, audit.NodeRevived, audit.HealthEvicted, audit.HealthRestored,
			audit.MigrationStart, audit.MigrationFence, audit.MigrationCutover, audit.MigrationAbort, audit.MigrationDone:
			event(e)
		}
	}
	return b.String()
}
