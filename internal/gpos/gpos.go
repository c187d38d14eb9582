// Package gpos models a general-purpose operating system as the paper's
// comparison baselines: Linux (virtualized and native) and OSv.
//
// The baseline runs the *same* protocol stack as the native EbbRT runtime -
// correctness is shared - but wraps the application behind the costs a
// general-purpose OS imposes and EbbRT removes:
//
//   - receive: device interrupt -> softirq processing -> copy into socket
//     buffer -> scheduler wakeup (latency + context switch) -> read()
//     syscall -> copy to userspace -> application
//   - transmit: write() syscall -> copy to kernel -> stack -> device
//   - a periodic scheduler tick that steals CPU and pollutes caches
//
// The OSv profile removes the user/kernel copy and cheapens syscalls (a
// single address space library OS) but pays a less-optimized virtio path,
// coarse locking, and - as its published virtio-net driver did - supports
// only a single receive queue, which is what degrades its multicore
// scaling in Figure 6.
package gpos

import (
	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// Config is one OS profile: which of internal/costs' general-purpose OS
// constants a runtime charges.
type Config struct {
	// Syscall is the user->kernel->user crossing cost.
	Syscall sim.Time
	// CopyPerByte is the user/kernel copy cost each direction.
	CopyPerByte float64 // ns per byte
	// SoftirqPerPacket is the kernel receive-path cost beyond the shared
	// protocol logic (skb management, socket demux, locking).
	SoftirqPerPacket sim.Time
	// WakeupLatency is the time from data-ready to the task running
	// (scheduler decision, runqueue, IPI).
	WakeupLatency sim.Time
	// CtxSwitch is the context-switch CPU cost charged on wakeup.
	CtxSwitch sim.Time
	// TickInterval and TickCost model the periodic scheduler tick.
	TickInterval sim.Time
	TickCost     sim.Time
	// LockPerPacketPerCore adds per-packet cost proportional to active
	// cores, modelling coarse-grained locking (OSv profile).
	LockPerPacketPerCore sim.Time
	// WakeupJitterMean adds exponentially distributed scheduler noise to
	// every wakeup; TailSpikeProb/TailSpikeMean model the occasional
	// long delay when an unrelated kernel thread holds the CPU - the
	// source of the general-purpose OS's 99th-percentile tail.
	WakeupJitterMean sim.Time
	TailSpikeProb    float64
	TailSpikeMean    sim.Time
}

// LinuxConfig is the Linux guest/host cost profile (paper's Debian 8,
// kernel 3.16). The same profile serves virtualized and native runs; the
// virtualization delta lives in the machine's device path.
func LinuxConfig() Config {
	return Config{
		Syscall:          costs.LinuxSyscallNs,
		CopyPerByte:      costs.LinuxCopyNsPerByte,
		SoftirqPerPacket: costs.LinuxSoftirqPerPacketNs,
		WakeupLatency:    costs.LinuxWakeupNs,
		CtxSwitch:        costs.LinuxCtxSwitchNs,
		TickInterval:     costs.LinuxTickIntervalNs,
		TickCost:         costs.LinuxTickNs,
		WakeupJitterMean: costs.LinuxWakeupJitterMeanNs,
		TailSpikeProb:    costs.LinuxTailSpikeProb,
		TailSpikeMean:    costs.LinuxTailSpikeMeanNs,
	}
}

// OSvConfig is the OSv profile: no user/kernel copies or hard syscalls,
// but a slower socket path and global locking; pair it with a single-queue
// NIC (machine.Config.NICQueues = 1).
func OSvConfig() Config {
	return Config{
		Syscall:              costs.OSvSyscallNs,
		CopyPerByte:          costs.OSvCopyNsPerByte,
		SoftirqPerPacket:     costs.OSvSoftirqPerPacketNs,
		WakeupLatency:        costs.OSvWakeupNs,
		CtxSwitch:            costs.OSvCtxSwitchNs,
		TickInterval:         costs.OSvTickIntervalNs,
		TickCost:             costs.OSvTickNs,
		LockPerPacketPerCore: costs.OSvLockPerPacketPerCoreNs,
		WakeupJitterMean:     costs.OSvWakeupJitterMeanNs,
		TailSpikeProb:        costs.OSvTailSpikeProb,
		TailSpikeMean:        costs.OSvTailSpikeMeanNs,
	}
}

// Runtime is a GPOS instance over a machine: the shared netstack plus the
// OS cost wrapper. It implements appnet.Runtime.
type Runtime struct {
	Cfg   Config
	Stack *netstack.Stack
	Itf   *netstack.Interface
	cores int
	rng   *sim.Rng
}

// NewRuntime boots the OS model: protocol stack, plus per-core scheduler
// ticks for the lifetime of the simulation.
func NewRuntime(m *machine.Machine, mgrs []*event.Manager, stackCfg netstack.Config, cfg Config, nic *machine.NIC, addr, mask netstack.Ipv4Addr) *Runtime {
	st := netstack.NewStack(m, mgrs, stackCfg)
	itf := st.AddInterface(nic, addr, mask)
	rt := &Runtime{Cfg: cfg, Stack: st, Itf: itf, cores: len(mgrs), rng: sim.NewRng(0x6b05)}
	if cfg.TickInterval > 0 {
		for _, mgr := range mgrs {
			rt.startTick(mgr)
		}
	}
	return rt
}

func (rt *Runtime) startTick(mgr *event.Manager) {
	var tick func(c *event.Ctx)
	tick = func(c *event.Ctx) {
		c.Charge(rt.Cfg.TickCost)
		mgr.After(rt.Cfg.TickInterval, tick)
	}
	mgr.After(rt.Cfg.TickInterval, tick)
}

// Mgrs implements appnet.Runtime.
func (rt *Runtime) Mgrs() []*event.Manager { return rt.Stack.Mgrs }

// Kernel implements appnet.Runtime.
func (rt *Runtime) Kernel() *sim.Kernel { return rt.Stack.M.K }

// copyCost charges the user/kernel copy for n bytes.
func (rt *Runtime) copyCost(n int) sim.Time {
	return sim.Time(rt.Cfg.CopyPerByte * float64(n))
}

// lockCost models coarse locking scaled by core count.
func (rt *Runtime) lockCost() sim.Time {
	return rt.Cfg.LockPerPacketPerCore * sim.Time(rt.cores)
}

// Listen implements appnet.Runtime.
func (rt *Runtime) Listen(port uint16, accept func(conn appnet.Conn) appnet.Callbacks) error {
	_, err := rt.Itf.ListenTcp(port, func(c *event.Ctx, pcb *netstack.TcpPcb) netstack.ConnHandler {
		sock := &socket{rt: rt, SendBuffer: appnet.SendBuffer{Pcb: pcb}}
		cb := accept(sock)
		return sock.handler(cb)
	})
	return err
}

// Dial implements appnet.Runtime.
func (rt *Runtime) Dial(c *event.Ctx, ip netstack.Ipv4Addr, port uint16, cb appnet.Callbacks, onConnect func(c *event.Ctx, conn appnet.Conn)) {
	sock := &socket{rt: rt}
	h := sock.handler(cb)
	h.OnConnected = func(c *event.Ctx, pcb *netstack.TcpPcb) {
		if onConnect != nil {
			onConnect(c, sock)
		}
	}
	c.Charge(rt.Cfg.Syscall) // connect()
	pcb, err := rt.Itf.ConnectTcp(c, ip, port, h)
	if err != nil {
		if cb.OnClose != nil {
			cb.OnClose(c, sock, err)
		}
		return
	}
	sock.Pcb = pcb
}

// socket is a kernel socket: buffered both directions, with the app on the
// far side of syscalls and a scheduler wakeup. Both copies the model
// charges for are made, into payload elements of the interface's: read()
// hands the task one element per delivered segment and frees them when
// OnData returns; write() copies into a chain of them that the stack frees
// on acknowledgment.
type socket struct {
	rt *Runtime

	// Receive side: kernel socket buffer awaiting the task's read().
	cb          appnet.Callbacks
	rxPending   *iobuf.IOBuf
	wakePending bool
	onWake      event.Handler // s.wake, bound once

	// Send side: the kernel send buffer, holding the copies write() made.
	appnet.SendBuffer
}

func (s *socket) handler(cb appnet.Callbacks) netstack.ConnHandler {
	s.cb, s.onWake = cb, s.wake
	return s.Handler(s, cb, func(c *event.Ctx, payload *iobuf.IOBuf) {
		// Softirq context: kernel-side processing and copy into the
		// socket buffer.
		pool, _ := s.Pools()
		data := pool.Copy(payload)
		c.Charge(s.rt.Cfg.SoftirqPerPacket + s.rt.lockCost())
		if s.rxPending == nil {
			s.rxPending = data
		} else {
			s.rxPending.AppendChain(data)
		}
		s.scheduleWake(c)
	})
}

// scheduleWake models the softirq -> task wakeup -> read() path.
func (s *socket) scheduleWake(c *event.Ctx) {
	if s.wakePending {
		return // task already runnable; data coalesces into one read
	}
	s.wakePending = true
	mgr := s.rt.Stack.Mgrs[s.Core()]
	delay := s.rt.Cfg.WakeupLatency
	if j := s.rt.Cfg.WakeupJitterMean; j > 0 {
		delay += sim.Time(s.rt.rng.Exp(float64(j)))
	}
	if p := s.rt.Cfg.TailSpikeProb; p > 0 && s.rt.rng.Float64() < p {
		delay += sim.Time(s.rt.rng.Exp(float64(s.rt.Cfg.TailSpikeMean)))
	}
	mgr.After(delay, s.onWake)
}

// wake is the task's turn: context switch, read() syscall, copy to
// userspace, then the socket buffer's elements go back. A wakeup is only
// ever pending behind buffered data; a socket closed meanwhile frees it.
func (s *socket) wake(c *event.Ctx) {
	s.wakePending = false
	pending := s.rxPending
	s.rxPending = nil
	if s.Closed {
		pending.Free()
		return
	}
	total := pending.ComputeChainDataLength()
	c.Charge(s.rt.Cfg.CtxSwitch + s.rt.Cfg.Syscall + s.rt.copyCost(total))
	if s.cb.OnData != nil && total > 0 {
		s.cb.OnData(c, s, pending)
	}
	pending.Free()
}

// Send implements appnet.Conn: write() syscall semantics. The copy is the
// kernel's from then on, so the caller's chain is freed at once.
func (s *socket) Send(c *event.Ctx, payload *iobuf.IOBuf) {
	if s.Closed || s.Pcb == nil {
		payload.Free()
		return
	}
	// write(): syscall plus copy into the kernel send buffer.
	c.Charge(s.rt.Cfg.Syscall + s.rt.copyCost(payload.ComputeChainDataLength()) + s.rt.lockCost())
	pool, _ := s.Pools()
	kernel := pool.Copy(payload)
	payload.Free()
	s.SendBuffer.Send(c, kernel)
}

// Close implements appnet.Conn.
func (s *socket) Close(c *event.Ctx) {
	if s.Closed || s.Pcb == nil {
		return
	}
	c.Charge(s.rt.Cfg.Syscall)
	s.SendBuffer.Close(c)
}
