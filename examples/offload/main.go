// Offload example: the heterogeneous deployment of paper §2.1 and the
// FileSystem Ebb of §4.3.
//
// A hosted frontend and two native backends share one Ebb namespace. The
// backends never implement a filesystem: their FileSystem representatives
// function-ship every call over the messenger to the frontend, whose
// representative serves the (in-memory) filesystem - "the most
// maintainable software is that which was not written."
//
//	go run ./examples/offload
package main

import (
	"fmt"

	"ebbrt"
)

func main() {
	sys := ebbrt.NewSystem()
	backend1 := sys.AddNativeNode(2)
	backend2 := sys.AddNativeNode(2)
	fs := ebbrt.NewFileSystem(sys)

	// Backend 1 writes its boot report; the call blocks the event (via
	// save/restore) while the round trip to the frontend completes.
	backend1.Spawn(func(c *ebbrt.EventCtx) {
		report := fmt.Sprintf("node=%d cores=%d booted_at=%v",
			backend1.Id, len(backend1.Runtime.Mgrs()), c.Now())
		if _, err := fs.Write(c, backend1, "/var/run/backend1", []byte(report)).Block(c); err != nil {
			panic(err)
		}
		fmt.Printf("  backend1 wrote its report at t=%v\n", c.Now())
	})

	// Backend 2 polls for it and reads it - cross-node data flow composed
	// entirely of Ebb invocations.
	backend2.Spawn(func(c *ebbrt.EventCtx) {
		var poll func(c *ebbrt.EventCtx)
		poll = func(c *ebbrt.EventCtx) {
			// The reply is handled by a later event, when c is no longer
			// valid: keep its manager, not c.
			mgr := c.Manager()
			fs.Read(c, backend2, "/var/run/backend1").OnDone(func(r ebbrt.Result[[]byte]) {
				data, err := r.Get()
				if err != nil {
					// Not there yet: retry shortly.
					mgr.After(1_000_000, poll)
					return
				}
				fmt.Printf("  backend2 read: %q\n", data)
			})
		}
		poll(c)
	})

	sys.K.RunUntil(1_000_000_000) // 1s of virtual time
	fmt.Printf("done at virtual t=%v\n", sys.K.Now())
}
