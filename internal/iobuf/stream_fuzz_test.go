package iobuf

import (
	"bytes"
	"testing"
)

// FuzzStream cuts a random chain into deliveries with Split and feeds them
// to a Stream, as a connection's receive path does, against a model that
// appends every delivery's bytes to one slice. The first byte picks the
// element class (1 to 64) and the second the chain's length (1 to 16
// elements); each of the next that many bytes is one element, its top bit
// picking a view of fresh bytes over a pool element, and its low six bits
// its length (at most the class). The rest is read in triples, one
// delivery each: the bytes Split cuts off the chain (1 to 256), the share
// of what Take returns that the parser consumes (of 255), and the need it
// passes Keep (16-byte units). Whatever is left when the input runs out is
// the last delivery. No descriptor may sit in both halves of a cut, and
// each half must read its bytes; each Take must return exactly the bytes
// delivered and not yet consumed, with the delivery freed after Keep (so,
// under iobufdebug, a Stream that kept a freed element's bytes reads them
// poisoned); and once every delivery is freed both pools have every
// element back.
func FuzzStream(f *testing.F) {
	f.Add([]byte{8, 3, 0x08, 0x05, 0x88, 4, 128, 0, 2, 0, 1, 255, 2})
	f.Add([]byte{64, 15, 0x3f, 0xbf, 0x20, 0x00, 0x3f, 0x01, 0x81, 0x3f, 0x3f, 0x10, 0x90, 0x3f, 0x3f, 0x3f, 0x3f,
		99, 200, 9, 0, 0, 0, 30, 255, 0, 250, 50, 200})
	f.Add([]byte{1, 6, 1, 1, 0x81, 1, 1, 0x81, 0, 0, 1, 0, 128, 0, 1, 255, 0})
	f.Add([]byte{32, 4, 0x20, 0xa0, 0x1f, 0x9f, 17, 100, 255, 47, 0, 1, 63, 255, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		class := int(in[0])%64 + 1
		p, views := NewPool(class), NewPool(0)
		var chain *IOBuf
		var model []byte
		fill := byte(0)
		n := int(in[1])%16 + 1
		shapes, in := in[2:min(2+n, len(in))], in[min(2+n, len(in)):]
		for _, b := range shapes {
			data := make([]byte, int(b&0x3f)%(class+1))
			for i := range data {
				fill = (fill + 1) & 0x7f // never the poison byte
				data[i] = fill
			}
			var e *IOBuf
			if b&0x80 != 0 {
				e = views.View(data)
			} else {
				e = p.Get(len(data))
				copy(e.Append(len(data)), data)
			}
			if chain == nil {
				chain = e
			} else {
				chain.AppendChain(e)
			}
			model = append(model, data...)
		}
		if chain == nil {
			return
		}
		var s Stream
		delivered, consumed := 0, 0
		for chain != nil {
			piece := chain
			var share, need int
			if len(in) >= 3 {
				cut := int(in[0]) + 1
				share, need = int(in[1]), int(in[2])*16
				in = in[3:]
				chain = piece.Split(cut, views)
				checkCut(t, piece, chain, model[delivered:], cut)
			} else {
				chain = nil
			}
			delivered += piece.ComputeChainDataLength()
			data := s.Take(piece)
			if !bytes.Equal(data, model[consumed:delivered]) {
				t.Fatalf("Take returned %v, want the %d bytes delivered and not consumed, %v", data, delivered-consumed, model[consumed:delivered])
			}
			k := len(data) * share / 255
			s.Keep(data, k, need)
			consumed += k
			piece.Free()
			if s.Len() != delivered-consumed {
				t.Fatalf("the stream holds %d bytes, want %d", s.Len(), delivered-consumed)
			}
		}
		if p.Outstanding() != 0 || views.Outstanding() != 0 {
			t.Fatalf("after every delivery was freed: %d elements and %d views out", p.Outstanding(), views.Outstanding())
		}
	})
}

// checkCut fails unless head and rest, a chain Split after cut bytes
// (rest nil if the chain was no longer), share no descriptor and read,
// one after the other, the bytes want begins with.
func checkCut(t *testing.T, head, rest *IOBuf, want []byte, cut int) {
	t.Helper()
	seen := map[*IOBuf]bool{}
	head.ForEach(func(e *IOBuf) { seen[e] = true })
	got := head.AppendTo(nil)
	if rest != nil {
		rest.ForEach(func(e *IOBuf) {
			if seen[e] {
				t.Fatal("a descriptor sits in both halves of a cut")
			}
		})
		if len(got) != cut {
			t.Fatalf("a cut after %d bytes left %d before it", cut, len(got))
		}
		got = rest.AppendTo(got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the halves of a cut read %v, want %v", got, want)
	}
}
