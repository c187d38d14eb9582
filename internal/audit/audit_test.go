package audit

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ebbrt/internal/sim"
)

func mkEvent(t sim.Time, node int, kind Kind) Event {
	return Event{Time: t, Node: node, Kind: kind}
}

func TestNilLogAndEmptyLogAreSafe(t *testing.T) {
	var l *Log
	l.Emit(0, 0, TCPState, nil) // must not panic
	NewLog().Emit(0, 0, TCPState, nil)
}

func TestLogFansOutToAllSinks(t *testing.T) {
	var t1, t2 Tape
	l := NewLog(&t1, &t2)
	l.Emit(7, 3, HealthEvicted, Fields{"backend": 1})
	l.Emit(9, 2, HealthRestored, nil)
	for i, tape := range []Tape{t1, t2} {
		if len(tape) != 2 || tape[0].Kind != HealthEvicted || tape[0].Node != 3 || tape[1].Kind != HealthRestored {
			t.Fatalf("sink %d got %+v, want health.evicted on node 3, then health.restored", i, tape)
		}
	}
}

// TestFileSinkGoldenFormat pins the JSON-lines artifact format: one
// compact object per line with t/node/kind and optional fields.
func TestFileSinkGoldenFormat(t *testing.T) {
	var buf bytes.Buffer
	s := NewFileSink(&buf)
	s.Emit(Event{Time: 1500, Node: 2, Kind: HealthEvicted, Fields: Fields{"backend": 1}})
	s.Emit(Event{Time: 2000, Node: 0, Kind: MigrationDone})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := `{"t":1500,"node":2,"kind":"health.evicted","fields":{"backend":1}}
{"t":2000,"node":0,"kind":"migration.done"}
`
	if got := buf.String(); got != want {
		t.Fatalf("file sink output:\n%s\nwant:\n%s", got, want)
	}
}

func TestFileSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewFileSink(&buf)
	in := []Event{
		{Time: 1, Node: 0, Kind: NodeKilled, Fields: Fields{"backend": float64(2)}},
		{Time: 2, Node: 1, Kind: HealthMissedBeat, Fields: Fields{"misses": float64(1)}},
		{Time: 3, Node: 1, Kind: HealthEvicted},
	}
	for _, e := range in {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	out, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip returned %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Time != in[i].Time || out[i].Node != in[i].Node || out[i].Kind != in[i].Kind {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, out[i], in[i])
		}
		for k, v := range in[i].Fields {
			if out[i].Fields[k] != v {
				t.Errorf("event %d field %q = %v, want %v", i, k, out[i].Fields[k], v)
			}
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{\"t\":1}\nnot json\n")); err == nil {
		t.Fatal("ReadEvents accepted a malformed line")
	}
}

func TestSeqMatchesOrderedSubsequence(t *testing.T) {
	events := []Event{
		mkEvent(1, 0, NodeKilled),
		mkEvent(2, 9, TCPRetransmit), // unrelated noise is skipped
		mkEvent(3, 1, HealthMissedBeat),
		mkEvent(4, 1, HealthMissedBeat),
		mkEvent(5, 9, TCPState),
		mkEvent(6, 1, HealthMissedBeat),
		mkEvent(7, 1, HealthEvicted),
		mkEvent(8, 0, FailoverRead),
	}
	err := ExpectEvents(events).Seq(
		On(NodeKilled),
		On(HealthMissedBeat).OnNode(1).Times(3),
		On(HealthEvicted),
		On(FailoverRead),
	)
	if err != nil {
		t.Fatalf("Seq: %v", err)
	}
}

func TestSeqRejectsOutOfOrder(t *testing.T) {
	events := []Event{
		mkEvent(1, 1, HealthEvicted),
		mkEvent(2, 0, NodeKilled),
	}
	err := ExpectEvents(events).Seq(On(NodeKilled), On(HealthEvicted))
	if err == nil {
		t.Fatal("Seq accepted an eviction that preceded the kill")
	}
	if !strings.Contains(err.Error(), "step 1") || !strings.Contains(err.Error(), string(HealthEvicted)) {
		t.Fatalf("Seq error does not name the failing step: %v", err)
	}
}

func TestSeqRejectsMissingRepetition(t *testing.T) {
	events := []Event{
		mkEvent(1, 1, HealthMissedBeat),
		mkEvent(2, 1, HealthMissedBeat),
	}
	err := ExpectEvents(events).Seq(On(HealthMissedBeat).Times(3))
	if err == nil {
		t.Fatal("Seq accepted 2 missed beats where 3 were required")
	}
	if !strings.Contains(err.Error(), "repetition 3/3") {
		t.Fatalf("Seq error does not report the repetition: %v", err)
	}
}

func TestMatcherFilterAndCounts(t *testing.T) {
	events := []Event{
		{Time: 1, Node: 1, Kind: HealthMissedBeat, Fields: Fields{"misses": 1}},
		{Time: 2, Node: 1, Kind: HealthMissedBeat, Fields: Fields{"misses": 2}},
		{Time: 3, Node: 2, Kind: HealthMissedBeat, Fields: Fields{"misses": 1}},
	}
	x := ExpectEvents(events)
	if got := x.Count(On(HealthMissedBeat)); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := x.Count(On(HealthMissedBeat).OnNode(1)); got != 2 {
		t.Fatalf("Count(node 1) = %d, want 2", got)
	}
	twice := On(HealthMissedBeat).Filter(func(e Event) bool {
		v, _ := e.Fields["misses"].(int)
		return v == 2
	})
	e, ok := x.First(twice)
	if !ok || e.Time != 2 {
		t.Fatalf("First(misses=2) = %+v ok=%v, want the t=2 event", e, ok)
	}
	last, ok := x.Last(On(HealthMissedBeat))
	if !ok || last.Time != 3 {
		t.Fatalf("Last = %+v ok=%v, want the t=3 event", last, ok)
	}
}

func TestSeqErrorDumpsTrace(t *testing.T) {
	events := []Event{mkEvent(1, 4, TCPRetransmit)}
	err := ExpectEvents(events).Seq(On(MigrationAbort))
	if err == nil {
		t.Fatal("Seq matched a kind that never occurred")
	}
	if !strings.Contains(err.Error(), "tcp.retransmit") {
		t.Fatalf("failure should dump the trace timeline, got: %v", err)
	}
}

func TestExpectEventsOverParsedLog(t *testing.T) {
	var buf bytes.Buffer
	s := NewFileSink(&buf)
	s.Emit(mkEvent(1, 0, NodeKilled))
	s.Emit(mkEvent(2, 1, HealthEvicted))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExpectEvents(events).Seq(On(NodeKilled), On(HealthEvicted)); err != nil {
		t.Fatalf("Seq over a parsed events.jsonl: %v", err)
	}
}

func TestMatcherString(t *testing.T) {
	got := On(HealthMissedBeat).OnNode(3).Times(2).String()
	want := fmt.Sprintf("%s@node3×2", HealthMissedBeat)
	if got != want {
		t.Fatalf("Matcher.String() = %q, want %q", got, want)
	}
}
