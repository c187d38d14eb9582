// Package hosted implements EbbRT's heterogeneous distributed structure
// (paper §2.1): an application deployed as a hosted process embedded in a
// general-purpose OS plus one or more native library-OS backends, all
// sharing one Ebb namespace and communicating over the local network.
//
// The hosted frontend provides what the native nodes deliberately omit:
// id allocation and legacy-interface offload
// (the FileSystem Ebb ships calls to the frontend, whose representative
// serves an in-memory filesystem standing in for the Linux one the paper
// offloads to). "The most maintainable software is that which was not
// written."
package hosted

import (
	"encoding/binary"
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/audit"
	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/gpos"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// NodeId identifies a node within an application deployment. Node 0 is
// always the hosted frontend.
type NodeId int

// messengerPort is the TCP port the per-node messenger listens on.
const messengerPort = 9000

// System is one application deployment: the frontend plus native backends
// on an isolated switched network.
type System struct {
	K      *sim.Kernel
	Switch *machine.Switch
	Nodes  []*Node
	nextId core.Id

	netCfg     netstack.Config
	auditLog   *audit.Log
	frontFSRep *fsFrontendRep // FileSystem Ebb's frontend store
}

// Node is one machine of the deployment.
type Node struct {
	Sys       *System
	Id        NodeId
	Machine   *machine.Machine
	Runtime   appnet.Runtime
	Domain    *core.Domain
	Messenger *Messenger

	fsRep *fsNativeRep // FileSystem Ebb's per-node representative
}

// IP returns the node's address on the application network.
func (n *Node) IP() netstack.Ipv4Addr { return netstack.IP(10, 0, 0, byte(10+n.Id)) }

// Kill simulates machine failure by cutting every NIC: the node stops
// reaching the network and stops being reachable, instantly and
// silently. Nothing above the device layer is torn down - sockets,
// stores, and Ebb representatives stay in memory, exactly as on a
// machine that lost power to its network port - so peers learn of the
// failure only through their own timeouts and health checks.
func (n *Node) Kill() {
	for _, nic := range n.Machine.NICs {
		nic.SetUp(false)
	}
}

// Revive reconnects a killed node's NICs. In-flight state from before
// the failure (TCP connections mid-retransmission, the contents of the
// node's stores) resumes where it left off; frames dropped during the
// outage are recovered by the peers' retransmission.
func (n *Node) Revive() {
	for _, nic := range n.Machine.NICs {
		nic.SetUp(true)
	}
}

// Alive reports whether the node is connected to the network.
func (n *Node) Alive() bool {
	for _, nic := range n.Machine.NICs {
		if !nic.Up() {
			return false
		}
	}
	return true
}

// SystemOptions configures a deployment's shared infrastructure.
type SystemOptions struct {
	// FrontendCores sizes the hosted node (default 2).
	FrontendCores int
	// Net is the network stack configuration every node (frontend and
	// native) boots with. The zero value is the calibrated stack;
	// experiments set its fields to ablate transport features (e.g. the
	// fixed-RTO baseline).
	Net netstack.Config
	// Audit, when non-nil, is wired into every node's network stack so
	// TCP state transitions and loss-recovery actions are published as
	// typed events labeled with the node's id.
	Audit *audit.Log
}

// NewSystem creates the frontend (hosted) node with the default two
// cores.
func NewSystem() *System { return NewSystemCores(2) }

// NewSystemCores creates the frontend (hosted) node with the given core
// count, for deployments that drive heavy client load through the
// frontend itself.
func NewSystemCores(frontendCores int) *System {
	return NewSystemOpts(SystemOptions{FrontendCores: frontendCores})
}

// NewSystemOpts creates the frontend (hosted) node under full options.
func NewSystemOpts(opt SystemOptions) *System {
	if opt.FrontendCores <= 0 {
		opt.FrontendCores = 2
	}
	k := sim.NewKernel()
	s := &System{K: k, Switch: machine.NewSwitch(k), nextId: 1000, netCfg: opt.Net, auditLog: opt.Audit}
	s.addNode(true, opt.FrontendCores)
	return s
}

// AddNativeNode boots a native backend with the given core count and
// returns it. The paper's deployments launch backends on demand; here the
// caller does so explicitly.
func (s *System) AddNativeNode(cores int) *Node {
	return s.addNode(false, cores)
}

// AddHostedNode boots an additional hosted (GPOS) node: a second
// frontend-tier process paying the same syscall-priced networking as
// node 0. Ebb id allocation stays with node 0; extra hosted nodes are
// peers on the data path only, which is all a scaled frontend tier
// needs.
func (s *System) AddHostedNode(cores int) *Node {
	return s.addNode(true, cores)
}

// Frontend returns the hosted node.
func (s *System) Frontend() *Node { return s.Nodes[0] }

// AllocateEbbId reserves a system-wide id. Allocation is owned by the
// frontend, keeping the shared namespace collision-free.
func (s *System) AllocateEbbId() core.Id {
	id := s.nextId
	s.nextId++
	for _, n := range s.Nodes {
		n.Domain.ReserveThrough(id)
	}
	return id
}

func (s *System) addNode(frontend bool, cores int) *Node {
	id := NodeId(len(s.Nodes))
	name := fmt.Sprintf("native-%d", id)
	if frontend {
		name = "hosted-frontend"
		if id > 0 {
			name = fmt.Sprintf("hosted-%d", id)
		}
	}
	cfg := machine.DefaultConfig(name, cores)
	m := machine.New(s.K, cfg)
	nic := machine.NewNIC(m, machine.MAC{0x02, 0xeb, 0, 0, 0, byte(id + 1)})
	s.Switch.Connect(nic)
	mgrs := make([]*event.Manager, cores)
	for i, c := range m.Cores {
		mgrs[i] = event.NewManager(c, event.DefaultCosts())
	}
	node := &Node{Sys: s, Id: id, Machine: m}
	mask := netstack.IP(255, 255, 255, 0)
	if frontend {
		// The hosted library lives in a GPOS process: same Ebb model,
		// hash-table translation, syscall-priced networking.
		rt := gpos.NewRuntime(m, mgrs, s.netCfg, gpos.LinuxConfig(), nic, node.IP(), mask)
		rt.Stack.Audit, rt.Stack.AuditNode = s.auditLog, int(id)
		node.Runtime = rt
		node.Domain = core.NewDomain(cores, core.HostedTable)
	} else {
		st := netstack.NewStack(m, mgrs, s.netCfg)
		st.Audit, st.AuditNode = s.auditLog, int(id)
		itf := st.AddInterface(nic, node.IP(), mask)
		node.Runtime = appnet.NewNative(st, itf)
		node.Domain = core.NewDomain(cores, core.NativeTable)
	}
	node.Messenger = newMessenger(node)
	s.Nodes = append(s.Nodes, node)
	return node
}

// Spawn runs fn as an event on the node's first core.
func (n *Node) Spawn(fn event.Handler) { n.Runtime.Mgrs()[0].Spawn(fn) }

// MessageHandler receives a messenger payload addressed to an Ebb.
type MessageHandler func(c *event.Ctx, src NodeId, payload []byte)

// Messenger is the per-node Ebb carrying inter-node Ebb messages over TCP
// (paper §3.3: representatives communicate by internally serializing data
// over the network, hidden from Ebb clients).
type Messenger struct {
	node     *Node
	handlers map[core.Id]MessageHandler
	conns    map[NodeId]appnet.Conn
	dialing  map[NodeId][]pendingMsg
	// dialAttempt numbers dial attempts per destination. Reset bumps it
	// to orphan an in-flight dial: a superseded dial's callbacks must
	// neither install its connection nor clear the state of the attempt
	// that replaced it.
	dialAttempt map[NodeId]uint64
}

type pendingMsg struct {
	ebb     core.Id
	payload []byte
}

// msgConn is the receive side of one messenger connection.
type msgConn struct {
	from NodeId // the peer; -1 on an accepted connection until its first message
	rx   iobuf.Stream
}

func newMessenger(n *Node) *Messenger {
	m := &Messenger{
		node:        n,
		handlers:    map[core.Id]MessageHandler{},
		conns:       map[NodeId]appnet.Conn{},
		dialing:     map[NodeId][]pendingMsg{},
		dialAttempt: map[NodeId]uint64{},
	}
	// Accept inbound messenger connections.
	err := n.Runtime.Listen(messengerPort, func(conn appnet.Conn) appnet.Callbacks {
		mc := &msgConn{from: -1}
		return appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				m.receive(c, mc, conn, payload)
			},
		}
	})
	if err != nil {
		panic(fmt.Sprintf("hosted: messenger listen: %v", err))
	}
	return m
}

// Register binds the handler invoked for messages addressed to ebb.
func (m *Messenger) Register(ebb core.Id, h MessageHandler) { m.handlers[ebb] = h }

// wire format: [srcNode u32][ebbId u32][len u32][payload]
const msgHeaderLen = 12

// msgReserveMax caps the reassembly buffer reserved for a message the
// peer has announced but not yet delivered: the length is the peer's
// word, and messages are control traffic. A longer one still arrives,
// its buffer grown as its bytes do.
const msgReserveMax = 64 << 10

// Send delivers payload to the Ebb's representative on the destination
// node, establishing the TCP connection on first use.
func (m *Messenger) Send(c *event.Ctx, dst NodeId, ebb core.Id, payload []byte) {
	if dst == m.node.Id {
		// Local delivery stays local (and synchronous).
		if h, ok := m.handlers[ebb]; ok {
			h(c, m.node.Id, payload)
		}
		return
	}
	if conn, ok := m.conns[dst]; ok {
		m.send(c, conn, ebb, payload)
		return
	}
	m.dialing[dst] = append(m.dialing[dst], pendingMsg{ebb: ebb, payload: payload})
	if len(m.dialing[dst]) > 1 {
		return // dial already in progress
	}
	attempt := m.dialAttempt[dst] + 1
	m.dialAttempt[dst] = attempt
	dstNode := m.node.Sys.Nodes[dst]
	mc := &msgConn{from: dst}
	m.node.Runtime.Dial(c, dstNode.IP(), messengerPort, appnet.Callbacks{
		OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
			m.receive(c, mc, conn, payload)
		},
		OnClose: func(c *event.Ctx, conn appnet.Conn, err error) {
			if m.dialAttempt[dst] != attempt {
				return // superseded by Reset; a newer attempt owns the state
			}
			delete(m.conns, dst)
			// If the dial itself failed, messages queued behind it would
			// otherwise wedge the destination forever (the next Send sees
			// a dial "in progress" that will never complete). Drop them -
			// the messenger is best-effort - so a later Send redials.
			delete(m.dialing, dst)
		},
	}, func(c *event.Ctx, conn appnet.Conn) {
		if m.dialAttempt[dst] != attempt {
			// A Reset orphaned this dial while its SYN was in flight;
			// close the late connection rather than clobbering the
			// current attempt's.
			conn.Close(c)
			return
		}
		m.conns[dst] = conn
		queued := m.dialing[dst]
		delete(m.dialing, dst)
		for _, msg := range queued {
			m.send(c, conn, msg.ebb, msg.payload)
		}
	})
}

// Reset drops the cached connection to dst (closing it if open) along
// with any dial in progress, so the next Send dials from scratch. A
// stream wedged behind a dead peer recovers one lost segment per RTO
// once the peer returns - seconds of blackout; failure detectors
// instead Reset and probe over a fresh connection, whose handshake
// completes within microseconds of the peer reviving.
func (m *Messenger) Reset(c *event.Ctx, dst NodeId) {
	if conn, ok := m.conns[dst]; ok {
		delete(m.conns, dst)
		conn.Close(c)
	}
	delete(m.dialing, dst)
	// Orphan any in-flight dial: its callbacks check this counter and
	// stand down, so a stale dial completing later can neither install
	// its connection nor drop messages queued behind a newer attempt.
	m.dialAttempt[dst]++
}

// receive dispatches every complete message of a delivery on one
// connection, keeping the partial one at its end for the next.
func (m *Messenger) receive(c *event.Ctx, mc *msgConn, conn appnet.Conn, payload *iobuf.IOBuf) {
	data := mc.rx.Take(payload)
	consumed, need := 0, 0
	for len(data)-consumed >= msgHeaderLen {
		hdr := data[consumed:]
		src := NodeId(binary.BigEndian.Uint32(hdr[0:4]))
		ebb := core.Id(binary.BigEndian.Uint32(hdr[4:8]))
		n := int(binary.BigEndian.Uint32(hdr[8:12]))
		if len(hdr) < msgHeaderLen+n {
			need = msgHeaderLen + min(n, msgReserveMax)
			break
		}
		consumed += msgHeaderLen + n
		if mc.from < 0 {
			// Learn the peer and keep the inbound connection for replies.
			mc.from = src
			m.conns[src] = conn
		}
		if h, ok := m.handlers[ebb]; ok {
			h(c, src, append([]byte(nil), hdr[msgHeaderLen:msgHeaderLen+n]...))
		}
	}
	mc.rx.Keep(data, consumed, need)
}

// send writes one message into a payload element of conn's interface
// and sends it.
func (m *Messenger) send(c *event.Ctx, conn appnet.Conn, ebb core.Id, payload []byte) {
	var f iobuf.Frames
	f.Pool, _ = appnet.PoolsOf(conn)
	b := f.Next(msgHeaderLen + len(payload))
	binary.BigEndian.PutUint32(b[0:4], uint32(m.node.Id))
	binary.BigEndian.PutUint32(b[4:8], uint32(ebb))
	binary.BigEndian.PutUint32(b[8:12], uint32(len(payload)))
	copy(b[msgHeaderLen:], payload)
	conn.Send(c, f.Take())
}
