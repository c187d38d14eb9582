package iobuf

import (
	"bytes"
	"testing"
)

// FuzzFrames builds a message from a random sequence of Next, Write and
// Link(View) calls over a pool of a random small class, against a model
// that appends each call's bytes to one slice. The first byte picks the
// class (1 to 64). Each further byte is one call: its top two bits pick
// it (0 and 1 Next, 2 Write, 3 Link of a View) and its low six bits its
// length, whose bytes count up from one call to the next. The message
// Take hands over must read exactly as the model; each head from Next
// must lie in one element; every pool-born element must stay within the
// class; and once the message is freed, both pools must have every
// element back.
func FuzzFrames(f *testing.F) {
	f.Add([]byte{8, 0x03, 0x04, 0x02, 0x83, 0xc6, 0x02, 0x0a})
	f.Add([]byte{4, 0x02, 0xbf, 0x01, 0xc0, 0x85, 0x41, 0x90})
	f.Add([]byte{64, 0x3f, 0xbf, 0xff, 0x3f, 0xbf})
	f.Add([]byte{1, 0x81, 0x00, 0x82, 0xc1, 0x80})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		class := int(in[0])%64 + 1
		p, views := NewPool(class), NewPool(0)
		fr := Frames{Pool: p}
		var model []byte
		var heads [][]byte
		fill := byte(0)
		for _, op := range in[1:] {
			src := make([]byte, op&0x3f)
			for i := range src {
				fill++
				src[i] = fill
			}
			switch op >> 6 {
			case 0, 1:
				h := fr.Next(len(src))
				copy(h, src)
				heads = append(heads, h)
			case 2:
				fr.Write(src)
			case 3:
				fr.Link(views.View(src))
			}
			model = append(model, src...)
		}
		msg := fr.Take()
		if fr.Take() != nil {
			t.Fatal("Take did not start the next message")
		}
		if msg == nil {
			if len(model) > 0 || p.Outstanding() != 0 {
				t.Fatalf("no message for %d bytes, %d elements out", len(model), p.Outstanding())
			}
			return
		}
		var got []byte
		msg.ForEach(func(e *IOBuf) {
			got = append(got, e.Data()...)
			if e.home != nil && e.home.pool == p && e.Capacity() != class {
				t.Errorf("a pool element of capacity %d, class %d", e.Capacity(), class)
			}
		})
		if !bytes.Equal(got, model) {
			t.Fatalf("message reads %v, want %v", got, model)
		}
		for i, h := range heads {
			if !inOneElement(msg, h) {
				t.Fatalf("head %d (%d bytes) does not lie in one element", i, len(h))
			}
		}
		msg.Free()
		if p.Outstanding() != 0 || views.Outstanding() != 0 {
			t.Fatalf("after Free: %d elements and %d views out", p.Outstanding(), views.Outstanding())
		}
	})
}

// inOneElement reports whether h, a slice Next returned, lies inside the
// view of one element of the chain.
func inOneElement(chain *IOBuf, h []byte) bool {
	if len(h) == 0 {
		return true
	}
	found := false
	chain.ForEach(func(e *IOBuf) {
		d := e.Data()
		for i := 0; i+len(h) <= len(d); i++ {
			if &d[i] == &h[0] {
				found = true
			}
		}
	})
	return found
}
