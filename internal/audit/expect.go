package audit

import (
	"fmt"
	"strings"

	"ebbrt/internal/sim"
)

// Matcher selects events by kind and, optionally, node, repetition and
// an arbitrary predicate. Build one with On and refine it fluently:
//
//	audit.On(audit.HealthMissedBeat).OnNode(3).Times(3)
type Matcher struct {
	// Kind to match ("" matches any kind).
	Kind Kind
	// Node to match (AnyNode matches any).
	Node int
	// Count is the consecutive repetition Seq requires (0 means 1).
	Count int
	// Where, when non-nil, further restricts matching events.
	Where func(Event) bool
}

// AnyNode is the Matcher.Node wildcard.
const AnyNode = -1 << 30

// On starts a matcher for the given kind on any node.
func On(kind Kind) Matcher { return Matcher{Kind: kind, Node: AnyNode} }

// OnNode restricts the matcher to events stamped with the node id.
func (m Matcher) OnNode(node int) Matcher {
	m.Node = node
	return m
}

// Times requires n matching events in sequence (not necessarily
// adjacent; Seq skips unrelated events between them).
func (m Matcher) Times(n int) Matcher {
	m.Count = n
	return m
}

// Filter adds a predicate over the event's fields.
func (m Matcher) Filter(fn func(Event) bool) Matcher {
	m.Where = fn
	return m
}

// Match reports whether the matcher accepts the event.
func (m Matcher) Match(e Event) bool {
	if m.Kind != "" && e.Kind != m.Kind {
		return false
	}
	if m.Node != AnyNode && e.Node != m.Node {
		return false
	}
	return m.Where == nil || m.Where(e)
}

func (m Matcher) String() string {
	s := string(m.Kind)
	if m.Node != AnyNode {
		s += fmt.Sprintf("@node%d", m.Node)
	}
	if m.Count > 1 {
		s += fmt.Sprintf("×%d", m.Count)
	}
	return s
}

// Expectation matches event sequences over a run's events.
type Expectation struct {
	events []Event
}

// ExpectEvents builds an expectation over an event slice: a tape, a
// window of one, or a parsed events.jsonl.
//
//	if err := audit.ExpectEvents(tape[mark:]).Seq(
//	        audit.On(audit.NodeKilled),
//	        audit.On(audit.HealthMissedBeat).Times(3),
//	        audit.On(audit.HealthEvicted),
//	        audit.On(audit.FailoverRead),
//	); err != nil {
//	        t.Fatal(err)
//	}
func ExpectEvents(events []Event) Expectation { return Expectation{events: events} }

// Seq asserts that the matchers occur in order as a subsequence of the
// event stream: each matcher (expanded by Times) must match an event
// strictly after the previous matcher's match; unrelated events in
// between are ignored. The returned error names the first unsatisfied
// matcher and dumps the trace tail so the failure reads as a timeline.
func (x Expectation) Seq(ms ...Matcher) error {
	pos := 0
	for mi, m := range ms {
		count := m.Count
		if count <= 0 {
			count = 1
		}
		for rep := 0; rep < count; rep++ {
			found := -1
			for i := pos; i < len(x.events); i++ {
				if m.Match(x.events[i]) {
					found = i
					break
				}
			}
			if found < 0 {
				return fmt.Errorf("audit: sequence broke at step %d (%s), repetition %d/%d: no matching event after index %d\ntrace:\n%s",
					mi, m, rep+1, count, pos, x.dump())
			}
			pos = found + 1
		}
	}
	return nil
}

// Count reports how many events match m.
func (x Expectation) Count(m Matcher) int {
	n := 0
	for _, e := range x.events {
		if m.Match(e) {
			n++
		}
	}
	return n
}

// First returns the earliest matching event.
func (x Expectation) First(m Matcher) (Event, bool) {
	for _, e := range x.events {
		if m.Match(e) {
			return e, true
		}
	}
	return Event{}, false
}

// Last returns the latest matching event.
func (x Expectation) Last(m Matcher) (Event, bool) {
	for i := len(x.events) - 1; i >= 0; i-- {
		if m.Match(x.events[i]) {
			return x.events[i], true
		}
	}
	return Event{}, false
}

// dump renders the events compactly for sequence-failure messages.
func (x Expectation) dump() string {
	var b strings.Builder
	const tail = 64
	start := 0
	if len(x.events) > tail {
		start = len(x.events) - tail
		fmt.Fprintf(&b, "  ... %d earlier events elided ...\n", start)
	}
	for i := start; i < len(x.events); i++ {
		e := x.events[i]
		fmt.Fprintf(&b, "  [%d] t=%dus node=%d %s %v\n", i, int64(e.Time)/1000, e.Node, e.Kind, e.Fields)
	}
	if len(x.events) == 0 {
		b.WriteString("  (no events)\n")
	}
	return b.String()
}

// RunUntilMatch advances the kernel in fine-grained steps until an
// event matching m lands on the tape at or after index mark, or the
// deadline passes. It returns the matching event and whether one
// arrived. This is how chaos tests wait for "the eviction happened"
// instead of sleeping a fixed slack window: the kernel stops within one
// step of the event, and a suppressed event fails the test at the
// deadline instead of silently passing.
func RunUntilMatch(k *sim.Kernel, t *Tape, m Matcher, mark int, deadline sim.Time) (Event, bool) {
	const step = 250 * sim.Microsecond
	for {
		for _, e := range (*t)[mark:] {
			if m.Match(e) {
				return e, true
			}
		}
		mark = len(*t)
		now := k.Now()
		if now >= deadline {
			return Event{}, false
		}
		next := now + step
		if next > deadline {
			next = deadline
		}
		k.RunUntil(next)
	}
}
