package cluster

import (
	"fmt"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// TestClientDataPathUnderFrameLoss injects deterministic frame loss
// into the deployment's switch and drives Set/Get through the client
// Ebb: every operation must complete successfully via TCP
// retransmission - zero failed callbacks, zero misses - because frame
// loss is the transport's problem, not the application's.
func TestClientDataPathUnderFrameLoss(t *testing.T) {
	cases := []struct {
		name string
		mod  uint64 // drop one frame in every mod (~1/mod loss rate)
	}{
		{name: "loss-1pct", mod: 97},
		{name: "loss-5pct", mod: 19},
		{name: "loss-10pct", mod: 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cl := New(2, 1)
			front := cl.Sys.Frontend()
			// No request timeout: recovery must come from the transport,
			// and retransmission under loss can take multiples of the
			// 200ms RTO.
			cli := NewClient(cl, front)
			dropped := 0
			cl.Sys.Switch.DropFn = func(index uint64, f machine.Frame) bool {
				if index%tc.mod == tc.mod-1 {
					dropped++
					return true
				}
				return false
			}

			const nOps = 60
			var setOK, getOK, failed int
			front.Spawn(func(c *event.Ctx) {
				for i := 0; i < nOps; i++ {
					key := []byte(fmt.Sprintf("lossy-key-%d", i))
					val := []byte(fmt.Sprintf("lossy-val-%d", i))
					cli.Set(c, key, val, 0, func(c *event.Ctx, r Response) {
						if !r.OK() {
							failed++
							return
						}
						setOK++
						cli.Get(c, key, func(c *event.Ctx, r Response) {
							if r.OK() && string(r.Value) == string(val) {
								getOK++
							} else {
								failed++
							}
						})
					})
				}
			})
			// Generous horizon: a lost frame costs at least one 200ms RTO,
			// and back-to-back losses back off exponentially.
			cl.Sys.K.RunUntil(120 * sim.Second)

			if dropped == 0 {
				t.Fatal("no frames dropped - loss injection vacuous")
			}
			if failed != 0 {
				t.Errorf("%d callbacks failed under %s frame loss", failed, tc.name)
			}
			if setOK != nOps || getOK != nOps {
				t.Errorf("completed %d sets, %d gets of %d under loss (dropped %d frames)",
					setOK, getOK, nOps, dropped)
			}
		})
	}
}
