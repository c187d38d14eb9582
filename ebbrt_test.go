package ebbrt_test

import (
	"testing"

	"ebbrt"
)

// The facade test exercises the public API end to end: a deployment, a
// custom Ebb, events with charging, futures with blocking, and the
// FileSystem offload - the same surface the examples use.
func TestPublicAPIEndToEnd(t *testing.T) {
	sys := ebbrt.NewSystem()
	backend := sys.AddNativeNode(2)
	fs := ebbrt.NewFileSystem(sys)

	type rep struct{ hits int }
	ref := ebbrt.AllocateEbb(backend.Domain, func(core int) *rep { return &rep{} })

	p := ebbrt.NewPromise[string]()
	doubled := ebbrt.ThenOK(p.Future(), func(s string) (string, error) { return s + s, nil })

	var fileContent []byte
	var chained string
	backend.Spawn(func(c *ebbrt.EventCtx) {
		ref.Get(c.Core().ID).hits++
		c.ChargeCycles(500)

		if _, err := fs.Write(c, backend, "/cfg", []byte("xyz")).Block(c); err != nil {
			t.Errorf("write: %v", err)
		}
		data, err := fs.Read(c, backend, "/cfg").Block(c)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		fileContent = data

		p.SetValue("ab")
		v, err := doubled.Block(c)
		if err != nil {
			t.Errorf("future: %v", err)
		}
		chained = v
	})
	sys.K.RunUntil(ebbrt.VirtualTime(2_000_000_000))

	if string(fileContent) != "xyz" {
		t.Fatalf("filesystem round trip got %q", fileContent)
	}
	if chained != "abab" {
		t.Fatalf("future chain got %q", chained)
	}
	total := 0
	ref.ForEachRep(func(core int, r *rep) { total += r.hits })
	if total != 1 {
		t.Fatalf("ebb hits = %d", total)
	}
}

func TestPublicTestbed(t *testing.T) {
	pair := ebbrt.NewTestbed(ebbrt.KindEbbRT, 1, 2)
	if got := len(pair.Server.Mgrs()); got != 1 {
		t.Fatalf("server cores %d, want 1", got)
	}
	if got := len(pair.Client.Mgrs()); got != 2 {
		t.Fatalf("client cores %d, want 2", got)
	}
	if pair.Server.Kernel() != pair.Client.Kernel() {
		t.Fatal("testbed machines on different kernels")
	}
}
