//go:build iobufdebug

package netstack

import (
	"bytes"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// What the debug build is for: a handler that keeps the payload's bytes
// past its call, instead of copying or retaining, finds them overwritten.
func TestDebugCatchesPayloadKeptPastTheCall(t *testing.T) {
	n := newTestNet(t, 1, 1)
	var kept, copied []byte
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{
		OnReceive: func(_ *event.Ctx, _ *TcpPcb, payload *iobuf.IOBuf) {
			kept = payload.Data() // the bug
			copied = payload.CopyOut()
		},
	}, nil)
	n.k.RunFor(10 * sim.Millisecond)
	msg := []byte("lent for the call")
	n.spawnA(func(c *event.Ctx) {
		if err := p.client.Send(c, iobuf.Wrap(msg)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	n.k.RunFor(10 * sim.Millisecond)
	if !bytes.Equal(copied, msg) {
		t.Fatalf("received %q", copied)
	}
	if want := bytes.Repeat([]byte{0xDB}, len(msg)); !bytes.Equal(kept, want) {
		t.Fatalf("bytes kept past the callback read %q, want them poisoned", kept)
	}
}
