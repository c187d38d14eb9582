package iobuf

import (
	"bytes"
	"math"
	"testing"
)

// FuzzPoolCopy copies a random source chain into a random pool with
// Pool.Copy and checks every copy against the source's bytes. The first
// two input bytes pick the destination: a plain pool (NewPool), a
// bounded one (NewBoundedPool) or a carved one (NewCarvedPool), its
// class, its keep bound and its slab size. Each following byte pair adds
// one source element: the first byte's low two bits pick a plain element
// (0 and 3), one born of a pool (1) or a view of one (2, ViewOf), and
// its high bits how far the element's view starts into its bytes; the
// second byte is the view's length. The source is copied three times,
// the first copy freed before the third, so the third takes elements the
// first gave back. Every copy must read as the source, fill each element
// but its last to the pool's class, and take each from the pool; the
// pool's Outstanding must count the elements of the copies held, and
// every pool must have every element back once all are freed.
func FuzzPoolCopy(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 10, 0x05, 200, 0x0a, 3})
	f.Add([]byte{0x16, 0x07, 0x01, 255, 0xfd, 255, 0x02, 0, 0x03, 1})
	f.Add([]byte{0x0d, 0x01, 0x41, 17, 0x42, 64})
	f.Add([]byte{0x02, 0x0a})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		classes := []int{1, 3, 16, 100, 512, 4096}
		keeps := []int{0, 1, 2, math.MaxInt}
		class, keep := classes[int(in[0]>>2)%len(classes)], keeps[int(in[1]&3)]
		var dst *Pool
		switch in[0] % 3 {
		case 0:
			dst = NewPool(class)
		case 1:
			dst = NewBoundedPool(class, keep)
		default:
			dst = NewCarvedPool(class, keep, int(in[1]>>2)%7+2)
		}
		srcPool, views := NewPool(320), NewPool(0)
		var src *IOBuf
		var want []byte
		fill := byte(0)
		for i := 2; i+1 < len(in); i += 2 {
			off, n := int(in[i]>>2), int(in[i+1])
			var e *IOBuf
			switch in[i] & 3 {
			case 1, 2:
				e = srcPool.Get(off + n)
			default:
				e = New(off + n)
			}
			for j, data := 0, e.Append(off+n); j < len(data); j++ {
				fill = (fill + 1) & 0x7f // never the poison byte
				data[j] = fill
			}
			if in[i]&3 == 2 {
				v := views.ViewOf(e)
				e.Free() // the view holds it
				e = v
			}
			e.Advance(off)
			want = append(want, e.Data()...)
			if src == nil {
				src = e
			} else {
				src.AppendChain(e)
			}
		}
		if src == nil {
			src = New(0)
		}

		held := 0
		copyOf := func() *IOBuf {
			cp := dst.Copy(src)
			if got := cp.AppendTo(nil); !bytes.Equal(got, want) {
				t.Fatalf("copy into class %d reads %x, want %x", class, got, want)
			}
			for e := cp; ; e = e.next {
				if e.next != cp && e.Length() != class {
					t.Fatalf("an element before the copy's last holds %d bytes, not the class's %d", e.Length(), class)
				}
				if e.home == nil || e.home.pool != dst || e.holders != 1 {
					t.Fatalf("a copy's element is not the pool's with one holder: %+v", e)
				}
				if e.next == cp {
					break
				}
			}
			held += cp.CountChainElements()
			if dst.Outstanding() != held {
				t.Fatalf("Outstanding %d with %d elements of copies held", dst.Outstanding(), held)
			}
			return cp
		}
		first, second := copyOf(), copyOf()
		held -= first.CountChainElements()
		first.Free()
		third := copyOf()
		if got := src.AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("copying changed the source: %x, want %x", got, want)
		}
		second.Free()
		third.Free()
		src.Free()
		for _, p := range []*Pool{dst, srcPool, views} {
			if p.Outstanding() != 0 {
				t.Fatalf("a pool of class %d has %d elements out after every Free", p.class, p.Outstanding())
			}
		}
	})
}
