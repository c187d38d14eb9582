// Package testbed assembles the experiment topologies of the paper's
// evaluation (§4): a client machine directly connected over a 10GbE link
// to a server machine running one of the systems under test.
package testbed

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/gpos"
	"ebbrt/internal/machine"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// ServerKind selects the system under test on the server machine.
type ServerKind int

// The systems compared in Figures 4-6 and Table 2.
const (
	EbbRT ServerKind = iota
	LinuxVM
	LinuxNative
	OSv
)

// String names the kind as in the paper's legends.
func (k ServerKind) String() string {
	switch k {
	case EbbRT:
		return "EbbRT"
	case LinuxVM:
		return "Linux"
	case LinuxNative:
		return "Linux Native"
	case OSv:
		return "OSV"
	}
	return fmt.Sprintf("ServerKind(%d)", int(k))
}

// Addresses used by the standard two-machine topology.
var (
	ClientIP = netstack.IP(10, 0, 0, 1)
	ServerIP = netstack.IP(10, 0, 0, 2)
	netMask  = netstack.IP(255, 255, 255, 0)
)

// Pair is a client/server testbed.
type Pair struct {
	K      *sim.Kernel
	Client appnet.Runtime
	Server appnet.Runtime
	Link   *machine.Link
}

// NewPair builds the two-machine topology with the chosen server system.
// clientCores should comfortably exceed the server's so the load generator
// is never the bottleneck (the paper uses a 20-core client).
func NewPair(kind ServerKind, serverCores, clientCores int) *Pair {
	k := sim.NewKernel()

	// Client: an unvirtualized machine running the fast native runtime -
	// the load generator is infrastructure, identical across experiments.
	cliCfg := machine.DefaultConfig("client", clientCores)
	cliCfg.Virtualized = false
	cliM := machine.New(k, cliCfg)
	cliNIC := machine.NewNIC(cliM, machine.MAC{0x02, 0, 0, 0, 0, 1})

	srvCfg := machine.DefaultConfig("server", serverCores)
	switch kind {
	case LinuxNative:
		srvCfg.Virtualized = false
	case OSv:
		srvCfg.NICQueues = 1 // OSv's virtio-net lacked multiqueue (paper §4.2)
	}
	srvM := machine.New(k, srvCfg)
	srvNIC := machine.NewNIC(srvM, machine.MAC{0x02, 0, 0, 0, 0, 2})

	link := machine.NewLink(k, cliNIC, srvNIC)

	cliMgrs := managers(cliM)
	cliStack := netstack.NewStack(cliM, cliMgrs, netstack.Config{})
	cliItf := cliStack.AddInterface(cliNIC, ClientIP, netMask)
	client := appnet.NewNative(cliStack, cliItf)

	srvMgrs := managers(srvM)
	var server appnet.Runtime
	switch kind {
	case EbbRT:
		st := netstack.NewStack(srvM, srvMgrs, netstack.Config{})
		itf := st.AddInterface(srvNIC, ServerIP, netMask)
		server = appnet.NewNative(st, itf)
	case LinuxVM, LinuxNative:
		server = gpos.NewRuntime(srvM, srvMgrs, netstack.Config{}, gpos.LinuxConfig(), srvNIC, ServerIP, netMask)
	case OSv:
		server = gpos.NewRuntime(srvM, srvMgrs, netstack.Config{}, gpos.OSvConfig(), srvNIC, ServerIP, netMask)
	}

	return &Pair{K: k, Client: client, Server: server, Link: link}
}

// NewSymmetricPair builds a topology with the *same* system on both ends,
// as the NetPIPE experiment requires ("in all cases, we run the same
// system on both ends").
func NewSymmetricPair(kind ServerKind, cores int) *Pair {
	k := sim.NewKernel()
	build := func(name string, mac byte, ip netstack.Ipv4Addr) (appnet.Runtime, *machine.NIC) {
		cfg := machine.DefaultConfig(name, cores)
		if kind == LinuxNative {
			cfg.Virtualized = false
		}
		if kind == OSv {
			cfg.NICQueues = 1
		}
		m := machine.New(k, cfg)
		nic := machine.NewNIC(m, machine.MAC{0x02, 0, 0, 0, 0, mac})
		mgrs := managers(m)
		switch kind {
		case EbbRT:
			st := netstack.NewStack(m, mgrs, netstack.Config{})
			itf := st.AddInterface(nic, ip, netMask)
			return appnet.NewNative(st, itf), nic
		case OSv:
			return gpos.NewRuntime(m, mgrs, netstack.Config{}, gpos.OSvConfig(), nic, ip, netMask), nic
		default:
			return gpos.NewRuntime(m, mgrs, netstack.Config{}, gpos.LinuxConfig(), nic, ip, netMask), nic
		}
	}
	client, cliNIC := build("client", 1, ClientIP)
	server, srvNIC := build("server", 2, ServerIP)
	link := machine.NewLink(k, cliNIC, srvNIC)
	return &Pair{K: k, Client: client, Server: server, Link: link}
}

func managers(m *machine.Machine) []*event.Manager {
	mgrs := make([]*event.Manager, len(m.Cores))
	for i, c := range m.Cores {
		mgrs[i] = event.NewManager(c, event.DefaultCosts())
	}
	return mgrs
}
