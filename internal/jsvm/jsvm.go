// Package jsvm is the managed-runtime substitute for the V8 JavaScript
// engine in the paper's node.js evaluation (§4.3, Figure 7).
//
// The paper attributes EbbRT's advantage on the pure-JavaScript V8
// benchmark suite to the *environment*, not the engine: EbbRT aggressively
// maps memory the engine allocates (no page faults), and its
// non-preemptive execution eliminates timer interrupts and their cache
// pollution. We therefore build a small managed runtime - tagged values,
// slot-based objects, a mark/sweep collector over a bump-allocated heap -
// and run the eight suite workloads (re-implemented against the runtime's
// allocation API) under two environment models. Real allocation, tracing,
// and operation counts come from executing the workloads; the environment
// charges page-fault and scheduler-tick costs exactly where a guest OS
// would impose them.
package jsvm

import (
	"fmt"

	"ebbrt/internal/costs"
	"ebbrt/internal/sim"
)

// Env models the operating environment the engine runs in.
type Env struct {
	// Label names the environment ("EbbRT", "Linux").
	Label string
	// PageFault is charged per fresh 4 KiB page the heap touches. EbbRT
	// pre-maps the regions V8 reserves, so it never faults.
	PageFault sim.Time
	// TickInterval is the scheduler timer period (0 disables ticks).
	TickInterval sim.Time
	// TickCost is the direct cost of one tick (interrupt + scheduler).
	TickCost sim.Time
	// TickPollution is the indirect cost of one tick: cache and TLB
	// refill imposed on the application afterwards.
	TickPollution sim.Time
}

// EbbRTEnv is the native library OS environment.
func EbbRTEnv() Env {
	return Env{Label: "EbbRT"}
}

// LinuxEnv is the general-purpose OS environment.
func LinuxEnv() Env {
	return Env{
		Label:         "Linux",
		PageFault:     costs.JSPageFaultNs,
		TickInterval:  costs.JSTickIntervalNs,
		TickCost:      costs.JSTickNs,
		TickPollution: costs.JSTickPollutionNs,
	}
}

// heapPageSize is the allocation-arena page granularity.
const heapPageSize = 4096

// Kind tags a Value.
type Kind byte

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNumber
	KindObject
	KindString
)

// Value is a tagged VM value.
type Value struct {
	Kind Kind
	Num  float64
	Obj  *Object
	Str  string
}

// Undefined is the undefined value.
var Undefined = Value{}

// Num makes a number value.
func Num(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Obj makes an object value.
func Obj(o *Object) Value { return Value{Kind: KindObject, Obj: o} }

// Str makes a string value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// Object is a slot-based heap object (V8's fast-mode objects are likewise
// fixed layouts; named properties map to slot indices at "compile" time).
type Object struct {
	Slots []Value
	mark  bool
	size  int
	prev  *Object // heap intrusive list for sweeping
	next  *Object
}

// Runtime is one engine instance executing under an environment model.
type Runtime struct {
	env Env

	// Virtual-time accounting.
	elapsed      sim.Time
	sinceTick    sim.Time
	heapBytes    int64 // bytes allocated since last GC
	totalAlloc   int64
	arenaPos     int64 // bump pointer; resets to live bytes at GC
	highWater    int64 // largest arena extent ever touched
	liveBytes    int64
	stringBytes  int64 // untraced string storage since last GC
	touchedPages int64
	live         int64

	// GC bookkeeping.
	objects   *Object // doubly-linked list of all objects
	roots     []*Object
	gcTrigger int64
	GCCount   int64
	Faults    int64
	Ticks     int64
}

// minGCTrigger is the smallest allocation volume between collections.
const minGCTrigger = 1 << 20

// New creates a runtime under the given environment.
func New(env Env) *Runtime {
	return &Runtime{env: env, gcTrigger: minGCTrigger}
}

// Elapsed reports the virtual time the program has consumed.
func (rt *Runtime) Elapsed() sim.Time { return rt.elapsed }

// charge adds CPU time and fires environment ticks as virtual time passes.
func (rt *Runtime) charge(d sim.Time) {
	rt.elapsed += d
	if rt.env.TickInterval == 0 {
		return
	}
	rt.sinceTick += d
	for rt.sinceTick >= rt.env.TickInterval {
		rt.sinceTick -= rt.env.TickInterval
		rt.Ticks++
		rt.elapsed += rt.env.TickCost + rt.env.TickPollution
	}
}

// Work charges n abstract operations (1 op = 1 ns at the reference clock).
// Benchmarks call it for their compute phases; allocation charges itself.
func (rt *Runtime) Work(n int) { rt.charge(sim.Time(n)) }

// NewObject allocates an object with n slots.
func (rt *Runtime) NewObject(n int) *Object {
	size := 16 + 16*n
	o := &Object{Slots: make([]Value, n), size: size}
	rt.account(int64(size))
	// Intrusive list insert.
	o.next = rt.objects
	if rt.objects != nil {
		rt.objects.prev = o
	}
	rt.objects = o
	rt.live++
	return o
}

// NewString allocates a string of the given length and returns its value.
// Strings are not traced: the collector treats string storage as
// reclaimable each cycle (flat payloads dominate string lifetimes in the
// suite's workloads).
func (rt *Runtime) NewString(s string) Value {
	size := int64(16 + len(s))
	rt.account(size)
	rt.stringBytes += size
	return Str(s)
}

// account charges allocation costs, page touches, and possibly GC.
//
// The arena is a bump allocator that resets to the live size at each
// collection, so the OS-visible footprint is the high-water mark of the
// working set: the engine faults (under Linux) only when the heap grows
// past memory it has already touched - EbbRT pre-maps the reservation and
// never faults (paper §4.3).
func (rt *Runtime) account(size int64) {
	rt.charge(costs.JSAllocNs)
	rt.totalAlloc += size
	rt.heapBytes += size
	rt.liveBytes += size
	rt.arenaPos += size
	if rt.arenaPos > rt.highWater {
		fresh := (rt.arenaPos + heapPageSize - 1) / heapPageSize * heapPageSize
		prev := (rt.highWater + heapPageSize - 1) / heapPageSize * heapPageSize
		pages := (fresh - prev) / heapPageSize
		rt.highWater = rt.arenaPos
		if pages > 0 {
			rt.touchedPages += pages
			if rt.env.PageFault > 0 {
				rt.Faults += pages
				rt.charge(sim.Time(pages) * rt.env.PageFault)
			}
		}
	}
	if rt.heapBytes >= rt.gcTrigger {
		rt.gc()
	}
}

// AddRoot registers a GC root.
func (rt *Runtime) AddRoot(o *Object) { rt.roots = append(rt.roots, o) }

// RemoveRoot unregisters the most recently added instance of o.
func (rt *Runtime) RemoveRoot(o *Object) {
	for i := len(rt.roots) - 1; i >= 0; i-- {
		if rt.roots[i] == o {
			rt.roots = append(rt.roots[:i], rt.roots[i+1:]...)
			return
		}
	}
}

// gc runs a stop-the-world mark/sweep collection.
func (rt *Runtime) gc() {
	rt.GCCount++
	// Mark.
	var stack []*Object
	for _, r := range rt.roots {
		if r != nil && !r.mark {
			r.mark = true
			stack = append(stack, r)
		}
	}
	marked := int64(0)
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		marked++
		for _, v := range o.Slots {
			if v.Kind == KindObject && v.Obj != nil && !v.Obj.mark {
				v.Obj.mark = true
				stack = append(stack, v.Obj)
			}
		}
	}
	// Sweep.
	swept := int64(0)
	sweptBytes := int64(0)
	for o := rt.objects; o != nil; {
		next := o.next
		if o.mark {
			o.mark = false
		} else {
			swept++
			sweptBytes += int64(o.size)
			if o.prev != nil {
				o.prev.next = o.next
			} else {
				rt.objects = o.next
			}
			if o.next != nil {
				o.next.prev = o.prev
			}
			o.prev, o.next = nil, nil
		}
		o = next
	}
	rt.live -= swept
	rt.liveBytes -= sweptBytes + rt.stringBytes
	rt.stringBytes = 0
	rt.heapBytes = 0
	// The arena compacts down to the survivors; pages beyond the high
	// water mark stay mapped. The next collection triggers after the heap
	// grows by the live size again (V8-style adaptive limit).
	rt.arenaPos = rt.liveBytes
	rt.gcTrigger = rt.liveBytes
	if rt.gcTrigger < minGCTrigger {
		rt.gcTrigger = minGCTrigger
	}
	// Collection cost: tracing live objects plus sweeping dead ones.
	rt.charge(sim.Time(marked)*costs.JSMarkPerObjectNs + sim.Time(swept)*costs.JSSweepPerObjectNs)
}

// Stats summarizes a run's allocation, paging and collection counters.
func (rt *Runtime) Stats() string {
	return fmt.Sprintf("alloc=%dMB pages=%d faults=%d gcs=%d ticks=%d live=%d",
		rt.totalAlloc>>20, rt.touchedPages, rt.Faults, rt.GCCount, rt.Ticks, rt.live)
}
