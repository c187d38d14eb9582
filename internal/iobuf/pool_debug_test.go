//go:build iobufdebug

package iobuf

import "testing"

// The guard itself: bytes read through a view kept past the last Free are
// 0xDB, and a write through one is caught when the element is next handed
// out.
func TestDebugPoisonsFreedBytes(t *testing.T) {
	p := NewPool(8)
	b := p.Get(8)
	copy(b.Append(8), "received")
	kept := b.Data()
	b.Free()
	for i, c := range kept {
		if c != poisonByte {
			t.Fatalf("byte %d of a freed element reads %#x, want %#x", i, c, poisonByte)
		}
	}
	if again := p.Get(8); again != b {
		t.Fatal("an untouched freed element failed the check")
	}
	b.Free()
	kept[3] = 'x'
	defer func() {
		if recover() == nil {
			t.Fatal("a write after Free went unnoticed")
		}
	}()
	p.Get(8)
}

// An element cut by a pooled Split is poisoned at its last piece's Free,
// not its first.
func TestDebugPoisonsCutElementAtItsLastPiece(t *testing.T) {
	p, views := NewPool(8), NewPool(0)
	e := p.Get(8)
	copy(e.Append(8), "headtail")
	rest := e.Split(4, views)
	kept := rest.Data()
	e.Free()
	if string(kept) != "tail" {
		t.Fatalf("the rest of a cut element reads %q after the first piece's Free", kept)
	}
	rest.Free()
	for i, c := range kept {
		if c != poisonByte {
			t.Fatalf("byte %d of the element reads %#x after its last piece's Free", i, c)
		}
	}
}

// The poison is for bytes a pool owns: a view descriptor's last Free leaves
// the bytes it was lent as they were.
func TestDebugLeavesLentBytesAlone(t *testing.T) {
	views := NewPool(0)
	lent := []byte("stored")
	views.View(lent).Free()
	if string(lent) != "stored" {
		t.Fatalf("freeing a view rewrote the bytes it was lent: %q", lent)
	}
	views.View(lent).Free() // and the recycled descriptor passes the check
}
