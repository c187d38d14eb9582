package event

import "ebbrt/internal/sim"

// activation is the record of one running event: its Ctx and, for a
// handler that blocks, the sim.Parker its stack waits on (the paper's saved
// event state). Activations are pooled per Manager; own is cleared when the
// event ends, so a pooled one holds nothing of the event that used it last.
type activation struct {
	ctx  *Ctx // the running event's: &own, or under iobufdebug one of its own
	own  Ctx
	park sim.Parker
}

func (m *Manager) getActivation() *activation {
	if n := len(m.pool); n > 0 {
		act := m.pool[n-1]
		m.pool = m.pool[:n-1]
		return act
	}
	return &activation{}
}
