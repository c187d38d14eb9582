// Package ebbrt is a Go reproduction of EbbRT, the framework for building
// per-application library operating systems (Schatzberg et al., OSDI'16 /
// BU-CS-TR 2016-002).
//
// The package re-exports the framework's public surface:
//
//   - Elastic Building Blocks: distributed multi-core fragmented objects
//     with per-core representatives constructed on demand (NewDomain,
//     AllocateEbb, Ref).
//   - The non-preemptive event-driven execution environment: one event
//     loop per core, Spawn, timers, idle handlers for adaptive polling,
//     and save/restore blocking contexts (EventManager, EventCtx).
//   - Monadic futures with Then-chaining and exception-like error flow.
//   - IOBuf zero-copy buffer chains.
//   - The native network stack (Ethernet/ARP/IPv4/UDP/TCP/DHCP) with
//     application-managed pacing.
//   - The memory allocation subsystem: buddy page allocator, SLQB-style
//     slab allocator with per-core representatives, general allocator.
//   - RCU and the RCU hash table.
//   - The heterogeneous deployment model: a hosted frontend plus native
//     backends sharing one Ebb namespace over a messenger, with offload
//     Ebbs such as the FileSystem.
//
// Because a Go program cannot boot bare-metal, the "hardware" is a
// deterministic simulated machine substrate (docs/ARCHITECTURE.md describes
// what it models and what it stands in for). The framework code above it -
// event loops, drivers, protocols, allocators, applications - is real and
// fully exercised by the test suite and by the experiments that cmd/ebbrt
// runs.
package ebbrt

import (
	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/hosted"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/mem"
	"ebbrt/internal/netstack"
	"ebbrt/internal/rcu"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// Core framework types.
type (
	// EbbId is a system-wide unique Ebb identifier.
	EbbId = core.Id
	// EbbDomain holds one machine's per-core representative tables.
	EbbDomain = core.Domain
	// EbbRef is the typed handle for invoking an Ebb.
	EbbRef[T any] = core.Ref[T]

	// EventManager is the per-core non-preemptive event loop.
	EventManager = event.Manager
	// EventCtx is the executing event's context (charging, blocking),
	// valid only during its event.
	EventCtx = event.Ctx
	// IdleHandler is a registered polling callback.
	IdleHandler = event.IdleHandler

	// Future is a monadic future; Promise is its producing side; Result
	// is the outcome delivered to continuations.
	Future[T any]  = future.Future[T]
	Promise[T any] = future.Promise[T]
	Result[T any]  = future.Result[T]
	// Unit is the empty payload of a Future that signals completion.
	Unit = future.Unit

	// IOBuf is a zero-copy buffer chain element.
	IOBuf = iobuf.IOBuf

	// Machine is a simulated host; Kernel the virtual-time executor.
	Machine = machine.Machine
	Kernel  = sim.Kernel
	// VirtualTime is a point in simulation time (nanoseconds).
	VirtualTime = sim.Time

	// Interface is a configured network interface; TcpPcb a connection.
	Interface = netstack.Interface
	TcpPcb    = netstack.TcpPcb
	Ipv4Addr  = netstack.Ipv4Addr

	// System is a heterogeneous deployment: hosted frontend plus native
	// backends. Node is one machine of it.
	System = hosted.System
	Node   = hosted.Node
	// FileSystem is the offload Ebb served by the hosted frontend.
	FileSystem = hosted.FileSystem

	// PageAllocator, SlabAllocator and Malloc form the memory subsystem.
	PageAllocator = mem.PageAllocator
	SlabAllocator = mem.SlabAllocator
	Malloc        = mem.Malloc

	// RCUTable is the resizable RCU hash table.
	RCUTable[K comparable, V any] = rcu.Table[K, V]

	// Conn and Callbacks are the application connection abstraction;
	// Runtime is an OS personality (native EbbRT or the GPOS baseline).
	Conn      = appnet.Conn
	Callbacks = appnet.Callbacks
	Runtime   = appnet.Runtime

	// TestbedPair is the two-machine client/server evaluation topology.
	TestbedPair = testbed.Pair
	// ServerKind selects the system under test on a testbed.
	ServerKind = testbed.ServerKind
)

// Systems under test for testbed topologies, as in the paper's figures.
const (
	KindEbbRT       = testbed.EbbRT
	KindLinuxVM     = testbed.LinuxVM
	KindLinuxNative = testbed.LinuxNative
	KindOSv         = testbed.OSv
)

// Re-exported constructors and helpers.

// NewSystem creates a deployment with a hosted frontend node.
func NewSystem() *System { return hosted.NewSystem() }

// NewFileSystem creates the FileSystem offload Ebb across a system's nodes.
func NewFileSystem(sys *System) *FileSystem { return hosted.NewFileSystem(sys) }

// NewTestbed builds the paper's two-machine topology with the chosen
// server system, serverCores on the server and clientCores on the client.
func NewTestbed(kind ServerKind, serverCores, clientCores int) *TestbedPair {
	return testbed.NewPair(kind, serverCores, clientCores)
}

// AllocateEbb creates an Ebb in a domain with a per-core miss handler.
func AllocateEbb[T any](d *EbbDomain, miss func(core int) *T) EbbRef[T] {
	return core.Allocate(d, miss)
}

// AttachEbb binds an existing id to a miss handler in this domain.
func AttachEbb[T any](d *EbbDomain, id EbbId, miss func(core int) *T) EbbRef[T] {
	return core.Attach(d, id, miss)
}

// NewPromise creates a promise/future pair.
func NewPromise[T any]() Promise[T] { return future.NewPromise[T]() }

// Ready returns an already-fulfilled future.
func Ready[T any](v T) Future[T] { return future.Ready(v) }

// Then chains fn onto f; the result future carries fn's outcome.
func Then[T, U any](f Future[T], fn func(future.Result[T]) (U, error)) Future[U] {
	return future.Then(f, fn)
}

// ThenOK chains fn onto f's success; upstream errors propagate untouched.
func ThenOK[T, U any](f Future[T], fn func(T) (U, error)) Future[U] {
	return future.ThenOK(f, fn)
}

// NewIOBuf allocates a buffer with the given capacity.
func NewIOBuf(capacity int) *IOBuf { return iobuf.New(capacity) }

// IOBufFromBytes copies data into a fresh buffer.
func IOBufFromBytes(data []byte) *IOBuf { return iobuf.FromBytes(data) }

// WrapIOBuf takes ownership of data without copying.
func WrapIOBuf(data []byte) *IOBuf { return iobuf.Wrap(data) }

// IP constructs an IPv4 address from octets.
func IP(a, b, c, d byte) Ipv4Addr { return netstack.IP(a, b, c, d) }

// NewRCUTable creates an RCU hash table. The table copies a string key
// when it inserts it, and keeps the resident key when it replaces one,
// so a key may borrow bytes the caller reuses after the call.
func NewRCUTable[K comparable, V any](hash func(K) uint64, hint int) *RCUTable[K, V] {
	return rcu.NewTable[K, V](hash, hint)
}

// StringHash hashes string keys for RCU tables.
func StringHash(s string) uint64 { return rcu.StringHash(s) }
