package load

import (
	"bytes"
	"strconv"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/sim"
)

// RunMutilateText drives one load point against a sharded cluster over
// the ASCII text protocol ("get <key>", "set <key> 0 0 <bytes>"), the way
// a stock text-mode client would - the same sharding, arrival process,
// and measurement as RunMutilateSharded, so a run pair isolates the wire
// protocol as the only variable (the TextVsBinary experiment).
func RunMutilateText(client appnet.Runtime, shards []Shard, route func(key []byte) int, cfg MutilateConfig) MutilateResult {
	return runMutilate(client, shards, route, cfg, func(w *Workload) codec { return &textCodec{work: w} })
}

// textCodec speaks the text protocol. It carries no opaque, so responses
// complete requests in FIFO order: one "VALUE...END" or bare "END" unit
// per get, one status line per (loud) set.
type textCodec struct {
	work *Workload
	fifo []op
	skip int // bytes of a VALUE data block (+CRLF) still to skip
}

func (t *textCodec) encode(o op) []byte {
	t.fifo = append(t.fifo, o)
	key := t.work.Keys[o.key]
	if o.isGet {
		b := append(make([]byte, 0, 4+len(key)+2), "get "...)
		return append(append(b, key...), '\r', '\n')
	}
	value := t.work.newValue()
	b := append(make([]byte, 0, len(key)+len(value)+24), "set "...)
	b = append(append(b, key...), " 0 0 "...)
	b = strconv.AppendInt(b, int64(len(value)), 10)
	b = append(append(append(b, '\r', '\n'), value...), '\r', '\n')
	return b
}

func (t *textCodec) decode(data []byte, done func(at sim.Time)) (int, int, error) {
	consumed := 0
	for {
		// Mid data block: skip the announced VALUE payload (+CRLF).
		n := min(len(data)-consumed, t.skip)
		consumed += n
		t.skip -= n
		if t.skip > 0 {
			return consumed, 0, nil
		}
		idx := bytes.IndexByte(data[consumed:], '\n')
		if idx < 0 {
			return consumed, 0, nil
		}
		line := bytes.TrimSuffix(data[consumed:consumed+idx], []byte("\r"))
		consumed += idx + 1
		if len(t.fifo) == 0 {
			continue // stray line with nothing outstanding; drop it
		}
		head := t.fifo[0]
		if head.isGet && bytes.HasPrefix(line, []byte("VALUE ")) {
			// VALUE <key> <flags> <bytes>[ <cas>]: skip the data block and
			// keep reading the same response unit (more VALUEs or END).
			toks := bytes.Fields(line)
			if len(toks) >= 4 {
				if n, err := strconv.Atoi(string(toks[3])); err == nil && n >= 0 {
					t.skip = n + 2
					continue
				}
			}
			// Unparseable VALUE line: fall through and complete the get,
			// abandoning sync recovery to the stray-line path above.
		}
		// Any other line terminates the unit: END for gets, STORED (or an
		// error line) for sets.
		t.fifo = t.fifo[1:]
		done(head.at)
	}
}
