// Package machine models the hardware substrate EbbRT runs on: multicore
// machines with interrupt delivery and masking, virtio-style NICs with
// multi-queue receive-side scaling, point-to-point links, and a learning
// switch.
//
// This package is the substitution for the paper's physical testbed (two
// Xeon servers with Intel X520 10GbE NICs running KVM guests). The EbbRT
// runtime logic above it - event loops, drivers, network stack - is real
// code; only the silicon and the hypervisor's packet path are cost models,
// whose constants live in internal/costs.
// All behaviour is deterministic: the machine schedules everything on a
// sim.Kernel. A frame rides one pooled record (type flight) from Transmit
// to the receiver's interrupt, so no hop allocates; a record returns to the
// pool of the NIC that made it.
package machine

import (
	"fmt"

	"ebbrt/internal/sim"
)

// Config describes one machine.
type Config struct {
	// Name identifies the machine in logs and experiment output.
	Name string
	// Cores is the number of processor cores.
	Cores int
	// NumaNodes is the number of memory domains; cores are distributed
	// round-robin-contiguously (cores/nodes per node).
	NumaNodes int
	// GHz is the core clock, used to convert cycle costs to time. The
	// paper's server runs at 2.6 GHz.
	GHz float64
	// Virtualized adds the hypervisor's virtio/vhost costs to every
	// packet (paper §4: EbbRT targets KVM guests; Linux is measured both
	// virtualized and native).
	Virtualized bool
	// NICQueues is the number of NIC receive queues. Multiqueue enables
	// flow steering across cores; OSv's virtio-net lacked it (paper §4.2).
	NICQueues int
}

// DefaultConfig returns a configuration resembling one guest of the paper's
// testbed: the given number of cores at 2.6 GHz on 2 NUMA nodes.
func DefaultConfig(name string, cores int) Config {
	return Config{
		Name:        name,
		Cores:       cores,
		NumaNodes:   2,
		GHz:         2.6,
		Virtualized: true,
		NICQueues:   cores,
	}
}

// Machine is a simulated host: cores plus devices.
type Machine struct {
	K     *sim.Kernel
	Cfg   Config
	Cores []*Core
	NICs  []*NIC
}

// New creates a machine attached to the kernel.
func New(k *sim.Kernel, cfg Config) *Machine {
	if cfg.Cores <= 0 {
		panic("machine: config needs at least one core")
	}
	if cfg.NumaNodes <= 0 {
		cfg.NumaNodes = 1
	}
	if cfg.GHz == 0 {
		cfg.GHz = 2.6
	}
	if cfg.NICQueues <= 0 {
		cfg.NICQueues = 1
	}
	m := &Machine{K: k, Cfg: cfg}
	perNode := (cfg.Cores + cfg.NumaNodes - 1) / cfg.NumaNodes
	for i := 0; i < cfg.Cores; i++ {
		m.Cores = append(m.Cores, &Core{
			M:    m,
			ID:   i,
			Node: i / perNode,
		})
	}
	return m
}

// Cycles converts a cycle count into virtual time at this machine's clock.
func (m *Machine) Cycles(n float64) sim.Time {
	return sim.Time(n / m.Cfg.GHz)
}

// String identifies the machine.
func (m *Machine) String() string { return m.Cfg.Name }

// Core is one processor. The event manager (native) or scheduler model
// (GPOS baseline) installs a dispatcher and drives interrupt masking.
//
// Interrupt semantics: a raised vector is delivered immediately - by
// calling the dispatcher - only when interrupts are enabled and the core is
// halted. Otherwise it is latched and the runtime collects it with
// PopPending between events, exactly the window the paper's event loop
// opens.
type Core struct {
	M    *Machine
	ID   int
	Node int

	dispatcher func(vec int)
	latchCheck func()
	// pending is the FIFO of latched vectors: pending[head:], in arrival
	// order.
	pending     []int
	head        int
	intsEnabled bool
	halted      bool
}

// SetDispatcher installs the runtime's interrupt entry point.
func (c *Core) SetDispatcher(f func(vec int)) { c.dispatcher = f }

// SetLatchCheck installs f to run whenever a vector is latched: the
// runtime's check that its loop will collect it.
func (c *Core) SetLatchCheck(f func()) { c.latchCheck = f }

// RaiseIRQ delivers vector vec to the core. Devices call this from kernel
// events; delivery is synchronous when the core is halted with interrupts
// enabled, otherwise the vector is latched.
func (c *Core) RaiseIRQ(vec int) {
	if c.intsEnabled && c.halted {
		c.halted = false
		if c.dispatcher == nil {
			panic(fmt.Sprintf("machine %s core %d: IRQ %d with no dispatcher", c.M, c.ID, vec))
		}
		c.dispatcher(vec)
		return
	}
	c.pending = append(c.pending, vec)
	if c.latchCheck != nil {
		c.latchCheck()
	}
}

// EnableInterrupts sets the interrupt flag (does not drain latched vectors;
// use PopPending for that, mirroring the explicit window in the event loop).
func (c *Core) EnableInterrupts() { c.intsEnabled = true }

// DisableInterrupts clears the interrupt flag.
func (c *Core) DisableInterrupts() { c.intsEnabled = false }

// Halt marks the core idle awaiting an interrupt. The next RaiseIRQ with
// interrupts enabled wakes it through the dispatcher.
func (c *Core) Halt() { c.halted = true }

// Halted reports whether the core is halted.
func (c *Core) Halted() bool { return c.halted }

// PopPending removes the vector latched earliest and returns it, or
// reports false when none is latched.
func (c *Core) PopPending() (int, bool) {
	if c.head == len(c.pending) {
		return 0, false
	}
	vec := c.pending[c.head]
	if c.head++; 2*c.head >= len(c.pending) {
		// Half or more is popped prefix (all of it, when the FIFO drains):
		// move the rest down and keep the backing array.
		c.pending = c.pending[:copy(c.pending, c.pending[c.head:])]
		c.head = 0
	}
	return vec, true
}

// Cycles converts cycles to time at the machine's clock.
func (c *Core) Cycles(n float64) sim.Time { return c.M.Cycles(n) }
