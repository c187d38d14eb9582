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
