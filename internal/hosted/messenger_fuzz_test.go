package hosted

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
)

// FuzzMessengerReceive cuts a stream of messenger messages into
// deliveries and feeds them through Messenger.receive, as TCP would hand
// them over. The first byte gives the message count (1-6). Each message
// then takes a byte whose low two bits pick its Ebb (ids 1 and 2 are
// registered, 3 and 4 are not) and whose bit 2 picks its size: a short
// message's length is the next byte, a long one's lies within 1 KiB of
// msgReserveMax, on either side. Payload bytes are a pattern of the
// message's index. The bytes left spell the deliveries: byte c cuts
// 1+c*c bytes, in two chained elements when c is odd; whatever remains
// is one last delivery. Every message to a registered Ebb must arrive
// once, in order and byte-exact, with its sender, even though each
// delivery's buffer is overwritten once receive returns; the rest are
// dropped, and nothing is left pending.
func FuzzMessengerReceive(f *testing.F) {
	f.Add([]byte{3, 0x00, 5, 0x01, 0, 0x02, 9, 1, 4, 2, 0})
	f.Add([]byte{2, 0x04, 255, 0x01, 3, 200, 255, 255, 7})     // one message over 64 KiB
	f.Add([]byte{4, 0x05, 0, 0x03, 40, 0x00, 1, 0x06, 128, 3}) // around the cap, to registered and not
	f.Add([]byte{6, 0, 0, 1, 1, 2, 2, 3, 3, 0, 4, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		const src = NodeId(7)
		type msg struct {
			ebb     core.Id
			payload []byte
		}
		var stream []byte
		var want []msg
		for i := range int(next())%6 + 1 {
			b := next()
			ebb, n := core.Id(b&3+1), int(next())
			if b&4 != 0 {
				n = msgReserveMax - 256 + n*4
			}
			m := msg{ebb: ebb, payload: make([]byte, n)}
			for j := range m.payload {
				m.payload[j] = byte(i*31 + j)
			}
			if ebb <= 2 {
				want = append(want, m)
			}
			stream = binary.BigEndian.AppendUint32(stream, uint32(src))
			stream = binary.BigEndian.AppendUint32(stream, uint32(ebb))
			stream = binary.BigEndian.AppendUint32(stream, uint32(n))
			stream = append(stream, m.payload...)
		}

		m := &Messenger{handlers: map[core.Id]MessageHandler{}, conns: map[NodeId]appnet.Conn{}}
		var got []msg
		for _, ebb := range []core.Id{1, 2} {
			m.Register(ebb, func(c *event.Ctx, from NodeId, payload []byte) {
				if from != src {
					t.Fatalf("message to Ebb %d from node %d, sent from %d", ebb, from, src)
				}
				got = append(got, msg{ebb: ebb, payload: payload})
			})
		}
		mc := &msgConn{from: -1}
		deliver := func(chunk []byte, chained bool) {
			buf := bytes.Clone(chunk)
			var payload *iobuf.IOBuf
			if half := len(buf) / 2; chained && half > 0 {
				payload = iobuf.Wrap(buf[:half])
				payload.AppendChain(iobuf.Wrap(buf[half:]))
			} else {
				payload = iobuf.Wrap(buf)
			}
			m.receive(nil, mc, nil, payload)
			clear(buf) // the delivery's bytes are the stack's again
		}
		for len(stream) > 0 {
			n, chained := len(stream), false
			if len(in) > 0 {
				c := int(next())
				n, chained = min(n, 1+c*c), c&1 == 1
			}
			deliver(stream[:n], chained)
			stream = stream[n:]
		}

		if len(got) != len(want) {
			t.Fatalf("%d messages delivered to registered Ebbs, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ebb != want[i].ebb || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("message %d: Ebb %d got %d bytes, want Ebb %d's %d bytes as sent",
					i, got[i].ebb, len(got[i].payload), want[i].ebb, len(want[i].payload))
			}
		}
		if mc.rx.Len() != 0 {
			t.Fatalf("%d bytes left pending after the whole stream", mc.rx.Len())
		}
		if _, ok := m.conns[src]; !ok || mc.from != src {
			t.Fatalf("the sender %d was not learnt from its first message (from %d)", src, mc.from)
		}
	})
}
