package netstack

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// sendShaped establishes a connection, sends data as one chain with the
// given element lengths (which must sum to len(data)), and returns what
// the server received and every data segment the client put on the wire,
// retransmissions included, as {seq, length}. loss > 0 drops that
// fraction of all frames, chosen by frame index alone.
func sendShaped(t *testing.T, data []byte, shape []int, loss uint64) (rx []byte, wire [][2]uint32) {
	t.Helper()
	n := newTestNet(t, 1, 1)
	n.link.DropFn = func(idx uint64, f machine.Frame) bool {
		if tf, ok := decodeTcpFrame(f); ok && tf.srcIP == n.itfA.Addr && tf.payloadLen > 0 {
			wire = append(wire, [2]uint32{tf.hdr.Seq, uint32(tf.payloadLen)})
		}
		return loss > 0 && (idx*2654435761>>8)%100 < loss
	}
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, &rx)
	n.k.RunFor(sim.Second)
	if p.client == nil || p.client.State() != "Established" {
		t.Fatal("handshake did not complete")
	}
	var chain *iobuf.IOBuf
	off := 0
	for _, l := range shape {
		if e := iobuf.Wrap(data[off : off+l]); chain == nil {
			chain = e
		} else {
			chain.AppendChain(e)
		}
		off += l
	}
	n.spawnA(func(c *event.Ctx) {
		if err := p.client.Send(c, chain); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	n.k.RunFor(20 * sim.Second)
	return rx, wire
}

// The ownership rule at the stack: whatever shape a chain has, Send moves
// it out as exactly the segments a flat buffer of the same bytes makes -
// first transmissions and retransmissions, with and without loss - the
// peer receives the byte-exact stream, and the sender's bytes are only
// ever read.
func TestTcpSendChainShapesMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10; trial++ {
		var shape []int
		total := 0
		for limit := 1 + rng.Intn(60000); total < limit; {
			l := min(1+rng.Intn(3000), limit-total)
			shape = append(shape, l)
			total += l
		}
		data := make([]byte, total)
		rng.Read(data)
		orig := slices.Clone(data)
		for _, loss := range []uint64{0, 8} {
			flatRx, flatWire := sendShaped(t, slices.Clone(data), []int{total}, loss)
			rx, wire := sendShaped(t, data, shape, loss)
			if !bytes.Equal(rx, orig) || !bytes.Equal(flatRx, orig) {
				t.Fatalf("trial %d loss %d%%: %d elements, %d bytes sent, %d received (flat %d)",
					trial, loss, len(shape), total, len(rx), len(flatRx))
			}
			if !slices.Equal(wire, flatWire) {
				t.Fatalf("trial %d loss %d%%: %d elements left as %d segments %v,\nflat as %d %v",
					trial, loss, len(shape), len(wire), wire, len(flatWire), flatWire)
			}
			if loss > 0 && len(wire) == (total+1459)/1460 && total > 20000 {
				t.Fatalf("trial %d: %d%% loss retransmitted nothing", trial, loss)
			}
			if !bytes.Equal(data, orig) {
				t.Fatalf("trial %d loss %d%%: sending wrote to the sender's bytes", trial, loss)
			}
		}
	}
}
