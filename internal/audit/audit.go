// Package audit is the cluster's typed event pipeline: every state
// machine that used to change state silently - TCP connections, the
// health monitor, the migrator, the quorum client, the hot-key cache -
// publishes its transitions as typed events through a shared Log with
// pluggable sinks.
//
// Two sinks cover the two consumers: an in-memory Tape that the
// availability experiment and the chaos tests assert causal sequences
// against (expect.go's matcher DSL), and a JSON-lines FileSink (`ebbrt
// run -events file`) so a run's fault timeline can be read, diffed and
// hashed outside the process.
//
// Emission is nil-safe and cheap when disabled: a nil *Log ignores
// Emit, and every hot-path call site guards with `if a := x.Audit; a !=
// nil` so no Fields map is ever built unless a sink is listening.
package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"ebbrt/internal/sim"
)

// Kind names one event type. The dotted prefix groups kinds by the
// emitting subsystem.
type Kind string

// Event kinds, one block per emitting subsystem.
const (
	// internal/netstack: TCP connection state machine and loss recovery.
	TCPState          Kind = "tcp.state"
	TCPRetransmit     Kind = "tcp.retransmit"
	TCPFastRetransmit Kind = "tcp.fast_retransmit"
	TCPPersistProbe   Kind = "tcp.persist_probe"

	// internal/cluster/health.go and cluster.go: failure detection and
	// ring membership. Missed beats come from the monitor; evictions and
	// restores are emitted by the membership change itself, so they are
	// observed whether the monitor or an operator triggered them.
	HealthMissedBeat Kind = "health.missed_beat"
	HealthEvicted    Kind = "health.evicted"
	HealthRestored   Kind = "health.restored"

	// internal/cluster/migrate.go: the migration job state machine.
	MigrationStart   Kind = "migration.start"
	MigrationFence   Kind = "migration.fence"
	MigrationCutover Kind = "migration.cutover"
	MigrationAbort   Kind = "migration.abort"
	MigrationDone    Kind = "migration.done"

	// internal/cluster/client.go: quorum and failover outcomes.
	// hint.go: a failed copy of an acknowledged Set that a full hint list
	// could not keep (fields: backend, key).
	QuorumWriteFail Kind = "client.quorum_fail"
	ReadRepair      Kind = "client.read_repair"
	FailoverRead    Kind = "client.failover_read"
	HintDropped     Kind = "client.hint_dropped"

	// internal/cluster/batch.go: one multi-op read round left a
	// frontend core for a backend (fields: backend, ops, bytes).
	FrontendBatchFlush Kind = "frontend.batch_flush"

	// internal/cluster/client.go hot-key cache coherence.
	HotKeyPromoted    Kind = "hotkey.promoted"
	HotKeyInvalidated Kind = "hotkey.invalidated"

	// Fault-injection markers: tests and experiment harnesses record the
	// faults they inject into the same timeline they assert over, so a
	// sequence can anchor at its cause.
	NodeKilled  Kind = "chaos.kill"
	NodeRevived Kind = "chaos.revive"
)

// Fields carries an event's kind-specific payload. Values must be
// JSON-encodable; keep them small (ints, short strings).
type Fields map[string]any

// Event is one state change: when (virtual time), where (hosted node
// id; -1 when no node owns the event), what, and the kind-specific
// details.
type Event struct {
	Time   sim.Time `json:"t"`
	Node   int      `json:"node"`
	Kind   Kind     `json:"kind"`
	Fields Fields   `json:"fields,omitempty"`
}

// Sink consumes emitted events, on the goroutine that runs the
// simulation.
type Sink interface {
	Emit(e Event)
}

// Log fans emitted events out to its sinks. A nil *Log drops
// everything, so subsystems hold one unconditionally and never branch.
// Its sinks are fixed at NewLog; emission itself takes no lock.
type Log struct {
	sinks []Sink
}

// NewLog creates a log over the given sinks.
func NewLog(sinks ...Sink) *Log { return &Log{sinks: sinks} }

// Emit publishes one event to every sink. Nil-safe.
func (l *Log) Emit(t sim.Time, node int, kind Kind, fields Fields) {
	if l == nil {
		return
	}
	e := Event{Time: t, Node: node, Kind: kind, Fields: fields}
	for _, s := range l.sinks {
		s.Emit(e)
	}
}

// Tape is the in-memory sink: every event, in emission order. It takes
// no lock, because one kernel goroutine emits and readers look between
// kernel steps. len(*tape) marks a point in the run, and (*tape)[mark:]
// is the window of events since.
type Tape []Event

// Emit implements Sink.
func (t *Tape) Emit(e Event) { *t = append(*t, e) }

// FileSink writes events as JSON lines - one object per event, in
// emission order - the format `ebbrt run -events` writes and the
// availability golden's audit_fnv64 hashes.
type FileSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewFileSink wraps an open writer.
func NewFileSink(w io.Writer) *FileSink {
	return &FileSink{w: bufio.NewWriter(w)}
}

// CreateFileSink creates (truncating) the file at path.
func CreateFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewFileSink(f)
	s.c = f
	return s, nil
}

// Emit implements Sink. The first write error sticks and is reported by
// Close; later events are dropped.
func (s *FileSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		s.err = err
	}
}

// Close flushes and closes the underlying file, reporting the first
// error seen anywhere in the sink's lifetime.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// ReadEvents parses a JSON-lines event stream, as FileSink writes it,
// back into events.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("audit: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
