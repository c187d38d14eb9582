package cluster

import (
	"encoding/binary"

	"ebbrt/internal/audit"
	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/hosted"
	"ebbrt/internal/sim"
)

// Failure detection finds a dead backend in heartbeatInterval *
// failureThreshold (15ms) - far faster than the netstack's 200ms RTO,
// which is the point: clients fail over when the monitor evicts, not when
// TCP gives up.
const (
	// heartbeatInterval is the ping period. A backend has missed a beat
	// when no pong arrived during the whole previous interval.
	heartbeatInterval = 5 * sim.Millisecond
	// failureThreshold consecutive missed beats evict a backend from the
	// ring; reviveThreshold consecutive answered beats restore it.
	failureThreshold, reviveThreshold = 3, 2
)

// heartbeat wire format: [kind byte][seq u64]
const (
	hbPing = 0x01
	hbPong = 0x02
)

// HealthMonitor is the failure detector: a messenger-driven heartbeat
// Ebb on the frontend (paper §3.3's inter-node representative
// communication put to operational use). Every heartbeatInterval it pings
// each backend; a backend that misses failureThreshold consecutive beats
// is evicted from the ring, rerouting its keys to the successors that
// already replicate them; an evicted backend that answers
// reviveThreshold consecutive beats is restored.
//
// Backends present when the monitor is created are monitored; the
// monitor keeps pinging evicted backends so recovery is detected
// without operator action. Eviction never empties the ring: the last
// live backend is kept even if unresponsive, since routing to a
// possibly-dead backend beats routing to nothing.
type HealthMonitor struct {
	cl   *Cluster
	node *hosted.Node
	id   core.Id

	states []backendHealth
	byNode map[hosted.NodeId]int
	seq    uint64
}

type backendHealth struct {
	lastPong sim.Time
	misses   int
	streak   int
}

// NewHealthMonitor installs the heartbeat Ebb for the cluster on the
// given node (the hosted frontend). Call Start to begin monitoring.
func NewHealthMonitor(cl *Cluster, node *hosted.Node) *HealthMonitor {
	h := &HealthMonitor{
		cl:     cl,
		node:   node,
		id:     cl.Sys.AllocateEbbId(),
		states: make([]backendHealth, len(cl.Backends)),
		byNode: map[hosted.NodeId]int{},
	}
	for i, b := range cl.Backends {
		h.byNode[b.Node.Id] = i
	}
	// Backends echo pings; the frontend collects pongs.
	for _, b := range cl.Backends {
		b := b
		b.Node.Messenger.Register(h.id, func(c *event.Ctx, src hosted.NodeId, payload []byte) {
			if len(payload) == 9 && payload[0] == hbPing {
				reply := append([]byte{hbPong}, payload[1:]...)
				b.Node.Messenger.Send(c, src, h.id, reply)
			}
		})
	}
	node.Messenger.Register(h.id, func(c *event.Ctx, src hosted.NodeId, payload []byte) {
		if len(payload) != 9 || payload[0] != hbPong {
			return
		}
		if i, ok := h.byNode[src]; ok {
			h.states[i].lastPong = c.Now()
		}
	})
	return h
}

// Start begins the heartbeat loop on the node's first core.
func (h *HealthMonitor) Start() {
	mgr := h.node.Runtime.Mgrs()[0]
	now := h.node.Runtime.Kernel().Now()
	for i := range h.states {
		h.states[i].lastPong = now // everyone starts healthy
	}
	mgr.Spawn(func(c *event.Ctx) { h.tick(c, mgr) })
}

func (h *HealthMonitor) tick(c *event.Ctx, mgr *event.Manager) {
	// Iterate the monitor's own state, not cl.Backends: backends added
	// after the monitor was created are unmonitored, not a crash.
	prev := c.Now() - heartbeatInterval
	for i := range h.states {
		st := &h.states[i]
		if st.lastPong >= prev {
			st.streak++
			st.misses = 0
		} else {
			st.misses++
			st.streak = 0
			if a := h.cl.Audit; a != nil {
				a.Emit(c.Now(), int(h.cl.Backends[i].Node.Id), audit.HealthMissedBeat, audit.Fields{
					"backend": i, "misses": st.misses,
				})
			}
		}
		if h.cl.Live(i) && st.misses >= failureThreshold && h.cl.LiveBackends() > 1 {
			h.cl.EvictBackend(i)
		} else if !h.cl.Live(i) && st.streak >= reviveThreshold && !h.cl.Decommissioned(i) {
			// A decommissioned backend answering pings (a live drain, or a
			// dead node that came back after being re-replicated around) is
			// never restored - its key share has moved on.
			h.cl.RestoreBackend(i)
		}
	}
	// Ping everyone - including evicted backends, to notice recovery.
	// Evicted backends are probed over a fresh connection each beat: the
	// established stream is wedged behind the outage and would deliver
	// queued beats one RTO at a time, turning a revival the handshake
	// could confirm in microseconds into seconds of blindness.
	h.seq++
	var ping [9]byte
	ping[0] = hbPing
	binary.BigEndian.PutUint64(ping[1:], h.seq)
	for i := range h.states {
		b := h.cl.Backends[i]
		if !h.cl.Live(i) {
			h.node.Messenger.Reset(c, b.Node.Id)
		}
		h.node.Messenger.Send(c, b.Node.Id, h.id, ping[:])
	}
	mgr.After(heartbeatInterval, func(c *event.Ctx) { h.tick(c, mgr) })
}
