// Package audit is the cluster's typed event pipeline: every state
// machine that used to change state silently - TCP connections, the
// health monitor, the migrator, the quorum client, the hot-key cache -
// publishes its transitions as typed events through a shared Log with
// pluggable sinks.
//
// Two sinks cover the two consumers: a bounded in-memory Ring that
// chaos tests assert causal sequences against (expect.go's matcher
// DSL), and a JSON-lines FileSink (`ebbrt run -events file`) so a run's
// fault timeline can be read, diffed and hashed outside the process.
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

// Sink consumes emitted events. Implementations used from tests that
// read concurrently with the simulation must synchronize internally
// (Ring does).
type Sink interface {
	Emit(e Event)
}

// Log fans emitted events out to its sinks. A nil *Log drops
// everything, so subsystems hold one unconditionally and never branch.
// Attach sinks before the simulation runs; emission itself takes no
// lock.
type Log struct {
	sinks []Sink
}

// NewLog creates a log over the given sinks.
func NewLog(sinks ...Sink) *Log { return &Log{sinks: sinks} }

// Attach adds a sink. Not safe concurrently with Emit; wire sinks at
// setup time.
func (l *Log) Attach(s Sink) { l.sinks = append(l.sinks, s) }

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

// Ring is the bounded in-memory sink tests assert against: the last
// `cap` events, oldest overwritten first. All methods are
// mutex-guarded, so a test goroutine may snapshot while the simulation
// goroutine emits.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	start   int    // index of the oldest buffered event
	n       int    // buffered count
	total   uint64 // events ever emitted
	dropped uint64 // events overwritten
}

// NewRing creates a ring holding the most recent capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == len(r.buf) {
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	} else {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
	}
	r.total++
}

// Len reports the buffered event count.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Total reports how many events were ever emitted into the ring; use it
// as the mark for SnapshotSince.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped reports how many events were overwritten before being read.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot copies the buffered events, oldest first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(0)
}

// SnapshotSince copies the buffered events emitted at or after the
// given Total() mark, oldest first. Events already overwritten are
// gone; callers polling promptly (RunUntilMatch) never miss any.
func (r *Ring) SnapshotSince(mark uint64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	skip := 0
	if first := r.total - uint64(r.n); mark > first {
		skip = int(mark - first)
		if skip > r.n {
			skip = r.n
		}
	}
	return r.snapshotLocked(skip)
}

func (r *Ring) snapshotLocked(skip int) []Event {
	out := make([]Event, 0, r.n-skip)
	for i := skip; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

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
