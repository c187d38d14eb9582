// Package costs is the virtual-time cost model in one table: every
// constant that turns modelled work into sim.Time, grouped by the
// mechanism it stands for. The paper explains its results by four
// mechanisms (§4): no VM exits on the data path, a short path from
// interrupt to application, no copies, and per-core data structures.
// Each group says which one it carries.
//
// Every name carries its unit: Ns for a sim.Time (virtual nanoseconds),
// NsPerByte for a per-byte cost, BitsPerSecond for a line rate, Prob for
// a probability. Every comment carries the constant's provenance:
//
//   - calibrated: set against the paper number it names;
//   - cited: a published figure of the hardware modelled;
//   - chosen: a plausible value that no number pins down.
//
// A constant's kind is part of its value. Untyped constants fold exactly
// at compile time and float64 ones are rounded first, so each keeps the
// kind its readers' arithmetic was written for.
package costs

import "ebbrt/internal/sim"

// Device and hypervisor path (internal/machine): what a packet costs
// below the guest. A virtualized EbbRT and a Linux guest pay it alike, so
// it sets the floor of Figure 4 and decides none of its gaps.
const (
	VirtioKickNs     = 900 * sim.Nanosecond  // guest MMIO exit per transmit; calibrated: Figure 4, 64 B one-way 9.7 µs
	VhostPerPacketNs = 1100 * sim.Nanosecond // host vhost work per packet, each way; calibrated: Figure 4, 9.7 µs
	IRQInjectNs      = 700 * sim.Nanosecond  // receive interrupt injected into the guest; calibrated: Figure 4, 9.7 µs
	NICLatencyNs     = 600 * sim.Nanosecond  // NIC and PHY, each way; calibrated: Figure 4, 9.7 µs
	InterruptEntryNs = 300 * sim.Nanosecond  // guest exception dispatch per interrupt; calibrated: Figure 4, 9.7 µs
	NativeTxNs       = 200 * sim.Nanosecond  // doorbell write per transmit on bare metal; chosen
	// RxCopyNsPerByte is the hypervisor's copy into guest memory on
	// reception, which both systems pay (§4.1.3); chosen: ~16 GB/s memcpy.
	RxCopyNsPerByte float64 = 0.06
)

// Wire and switch (internal/machine): the testbed's 10GbE.
const (
	LinkBitsPerSecond   float64 = 10e9                 // each direction; cited: the testbed's 10GbE X520 pair (§4)
	LinkPropagationNs           = 300 * sim.Nanosecond // one-way flight; chosen
	SwitchBitsPerSecond float64 = 10e9                 // each output port; cited: 10GbE, as the testbed
	SwitchLatencyNs             = 500 * sim.Nanosecond // store and forward; chosen
)

// Native event loop and stack (internal/event, internal/netstack): the
// short path from interrupt to application.
const (
	EventDispatchNs  = 60 * sim.Nanosecond  // per handler invocation; calibrated: Figure 4, 9.7 µs
	IdlePollNs       = 80 * sim.Nanosecond  // least charge for a pass over the idle handlers; chosen
	ContextSaveNs    = 120 * sim.Nanosecond // per save and per restore of a blocking event (§3.2); chosen
	StackPerPacketNs = 350 * sim.Nanosecond // parse or build, demux, lookup, per packet each way; calibrated: Figure 4, 9.7 µs
	AppDeliverNs     = 100 * sim.Nanosecond // the call into the application per delivery; calibrated: Figure 4, 9.7 µs
)

// General-purpose OS profiles (internal/gpos): what EbbRT removes - the
// syscall, the user/kernel copy, the softirq hand-off, the scheduler's
// wakeup, its jitter and its tick. Linux serves virtualized and native
// runs alike. OSv trades the copies for a slower socket path and a lock
// whose cost grows with the cores serving.
const (
	LinuxSyscallNs                  = 400 * sim.Nanosecond  // per crossing; calibrated: Figure 4, Linux 64 B one-way 15.9 µs
	LinuxCopyNsPerByte      float64 = 0.12                  // user/kernel copy, each way; calibrated: Figure 4, 15.9 µs
	LinuxSoftirqPerPacketNs         = 1200 * sim.Nanosecond // skb, demux, socket locks; calibrated: Figure 4, 15.9 µs
	LinuxWakeupNs                   = 2500 * sim.Nanosecond // data ready to task running; calibrated: Figure 4, 15.9 µs
	LinuxCtxSwitchNs                = 2000 * sim.Nanosecond // per wakeup; calibrated: Figure 4, 15.9 µs
	LinuxWakeupJitterMeanNs         = 4000 * sim.Nanosecond // exponential, per wakeup; chosen
	LinuxTailSpikeProb      float64 = 0.02                  // per wakeup, another thread holds the CPU; chosen
	LinuxTailSpikeMeanNs            = 90 * sim.Microsecond  // exponential; chosen
	LinuxTickIntervalNs             = 1 * sim.Millisecond   // scheduler tick period; chosen
	LinuxTickNs                     = 2500 * sim.Nanosecond // per tick; chosen

	OSvSyscallNs                      = 80 * sim.Nanosecond   // per crossing, one address space; chosen
	OSvCopyNsPerByte          float64 = 0.02                  // internal hand-offs, no user crossing; chosen
	OSvSoftirqPerPacketNs             = 1500 * sim.Nanosecond // chosen
	OSvWakeupNs                       = 2200 * sim.Nanosecond // chosen
	OSvCtxSwitchNs                    = 900 * sim.Nanosecond  // chosen
	OSvLockPerPacketPerCoreNs         = 500 * sim.Nanosecond  // coarse lock, times the cores serving; chosen
	OSvWakeupJitterMeanNs             = 3500 * sim.Nanosecond // chosen
	OSvTailSpikeProb          float64 = 0.02                  // per wakeup; chosen
	OSvTailSpikeMeanNs                = 80 * sim.Microsecond  // chosen
	OSvTickIntervalNs                 = 1 * sim.Millisecond   // chosen
	OSvTickNs                         = 2000 * sim.Nanosecond // chosen
)

// memcached (internal/apps/memcached): the application's own work. The
// store costs are the per-core data-structure mechanism: an RCU read is
// flat in cores, a locked table pays per core contending.
const (
	MemcachedRequestNs          = 300 * sim.Nanosecond // parse and execute, per request; chosen
	MemcachedTextParseNsPerByte = 2 * sim.Nanosecond   // tokenizing an ASCII command line; chosen
	RCUStoreOpNs                = 60 * sim.Nanosecond  // hash and unsynchronized traversal; chosen
	LockedStoreOpNs             = 120 * sim.Nanosecond // one uncontended lock; chosen
	BoundedStoreOpNs            = 140 * sim.Nanosecond // lock plus LRU bookkeeping; chosen
	StoreLockPerCoreNs          = 90 * sim.Nanosecond  // per core contending for a store lock; chosen
)

// Migration (internal/cluster): what rebalancing costs the serving path.
const (
	MigratePerEntryNs = 200 * sim.Nanosecond // scan and serialize, per streamed entry; chosen
)

// Web server and managed runtime (internal/apps/httpd, internal/jsvm):
// §4.3's node.js port, where the gap is the environment - no page faults,
// no timer ticks - not the engine.
const (
	HTTPHandlerNs           = 73 * sim.Microsecond  // JavaScript handler per request; calibrated: Table 2, EbbRT mean 90.54 µs
	HTTPHandlerJitterMeanNs = 9 * sim.Microsecond   // exponential, allocation and GC; calibrated: Table 2, EbbRT p99 123.00 µs
	JSPageFaultNs           = 2300 * sim.Nanosecond // per fresh 4 KiB heap page under Linux; calibrated: Figure 7, overall +4.09 %
	JSTickIntervalNs        = 1 * sim.Millisecond   // Linux's timer period under the engine; calibrated: Figure 7, +4.09 %
	JSTickNs                = 1800 * sim.Nanosecond // interrupt and scheduler per tick; calibrated: Figure 7, +4.09 %
	JSTickPollutionNs       = 9500 * sim.Nanosecond // cache and TLB refill after a tick; calibrated: Figure 7, +4.09 %
	JSAllocNs               = 4 * sim.Nanosecond    // per bump allocation; chosen
	JSMarkPerObjectNs       = 14 * sim.Nanosecond   // per live object traced; chosen
	JSSweepPerObjectNs      = 6 * sim.Nanosecond    // per dead object swept; chosen
)

// Figure 3's allocator model (internal/experiments): one alloc/free
// pair's cost, in float nanoseconds, on per-core free lists (EbbRT), with
// atomic statistics (jemalloc), and split around one arena lock (glibc).
const (
	AllocEbbRTPairNs    = 26.0 // calibrated: Figure 3, EbbRT ~680 cycles per ten pairs on one core
	AllocJemallocPairNs = 37.0 // calibrated: Figure 3, jemalloc ~960 cycles
	AllocGlibcLocalNs   = 24.0 // outside the lock; calibrated: Figure 3, glibc ~740 cycles on one core
	AllocGlibcHoldNs    = 4.5  // inside the lock; calibrated: Figure 3, glibc ~2800 cycles at 24 cores
)
