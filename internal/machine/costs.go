package machine

import "ebbrt/internal/sim"

// CostModel holds the device and hypervisor path costs charged per packet.
// These are the knobs that reproduce the paper's Figure 4-6 environment:
// both EbbRT and Linux guests pay the virtio/vhost costs; only the guest OS
// path above the device differs (and is charged by the respective runtime).
//
// Defaults are calibrated so the NetPIPE experiment lands near the paper's
// absolute numbers (9.7 us one-way for 64 B under EbbRT); `ebbrt run figure4`
// prints what they yield beside the paper's.
type CostModel struct {
	// VirtioKick is the guest-side cost to notify the host of a transmit
	// (MMIO exit).
	VirtioKick sim.Time
	// VhostPerPacket is the host-side vhost packet processing cost,
	// charged once on transmit and once on receive.
	VhostPerPacket sim.Time
	// IRQInject is the cost for the hypervisor to inject a receive
	// interrupt into the guest.
	IRQInject sim.Time
	// RxCopyPerByte is the hypervisor's unavoidable copy on packet
	// reception into guest memory (paper §4.1.3: "both systems must
	// suffer a copy on packet reception due to the hypervisor").
	RxCopyPerByte float64 // ns per byte
	// NICLatency is the physical NIC + wire PHY latency per direction.
	NICLatency sim.Time
	// InterruptEntry is the guest-visible exception dispatch cost (save
	// state, vector to handler); charged by runtimes on IRQ entry.
	InterruptEntry sim.Time
}

func (c *CostModel) applyDefaults() {
	if c.VirtioKick == 0 {
		c.VirtioKick = 900 * sim.Nanosecond
	}
	if c.VhostPerPacket == 0 {
		c.VhostPerPacket = 1100 * sim.Nanosecond
	}
	if c.IRQInject == 0 {
		c.IRQInject = 700 * sim.Nanosecond
	}
	if c.RxCopyPerByte == 0 {
		c.RxCopyPerByte = 0.06 // ~16 GB/s memcpy
	}
	if c.NICLatency == 0 {
		c.NICLatency = 600 * sim.Nanosecond
	}
	if c.InterruptEntry == 0 {
		c.InterruptEntry = 300 * sim.Nanosecond
	}
}

// RxCopy returns the hypervisor receive-copy cost for n bytes.
func (c *CostModel) RxCopy(n int) sim.Time {
	return sim.Time(c.RxCopyPerByte * float64(n))
}
