package iobuf

import (
	"bytes"
	"testing"
)

// FuzzPoolHolders runs a random sequence of Get, Retain, Free, ViewOf and
// Split over three pools of element classes 8, 16 and 32 - the 16-byte one
// bounded to keep 2 spares - and a pool of view descriptors, against a
// model that counts each descriptor's holds and each element's holders.
// Each input byte pair is one call: the first byte's low three bits pick
// it (0-1 Get, 2 Retain, 3-4 Free, 5 ViewOf, 6-7 Split) and its high bits
// Get's pool or Split's cut; the second byte picks the descriptor it acts
// on, or Get's length. After
// every call, every descriptor still held must read the bytes the model
// says - so, under iobufdebug, no poisoned byte is readable through a live
// view - and must have holders; each pool's Outstanding must be the
// elements the model has out; and no free list may hold more than its
// bound. Once everything is freed, every pool has every element back.
func FuzzPoolHolders(f *testing.F) {
	f.Add([]byte{0x00, 0, 0x28, 0, 0x02, 0, 0x05, 1, 0x06, 0, 0x03, 0, 0x03, 0, 0x04, 1})
	f.Add([]byte{0x08, 0, 0x08, 0, 0x08, 0, 0x03, 0, 0x03, 0, 0x03, 0, 0x08, 0})
	f.Add([]byte{0x10, 0, 0x0e, 0, 0x05, 1, 0x0f, 2, 0x03, 0, 0x04, 0, 0x02, 1, 0x03, 1})
	f.Add([]byte{0x01, 0, 0x05, 0, 0x05, 0, 0x03, 0, 0x06, 1, 0x06, 2, 0x03, 1, 0x01, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		pools := []*Pool{NewPool(8), NewBoundedPool(16, 2), NewPool(32)}
		views := NewPool(0)
		m := &holdersModel{}
		fill := byte(0)
		for i := 0; i+1 < len(in); i += 2 {
			op, arg := in[i], int(in[i+1])
			var d *heldDesc
			if len(m.descs) > 0 {
				d = m.descs[arg%len(m.descs)]
			}
			switch op & 7 {
			case 0, 1:
				p := pools[int(op>>3)%len(pools)]
				n := arg%p.class + 1
				b := p.Get(n)
				data := b.Append(n)
				for j := range data {
					fill = (fill + 1) & 0x7f // never the poison byte
					data[j] = fill
				}
				el := &heldElem{pool: p, holders: 1}
				m.descs = append(m.descs, &heldDesc{b: b, holds: 1, want: bytes.Clone(data), elem: el})
			case 2:
				if d != nil {
					d.b.Retain()
					d.holds++
					if !d.view {
						d.elem.holders++
					}
				}
			case 3, 4:
				if d != nil {
					d.b.Free()
					m.drop(d)
				}
			case 5:
				if d != nil {
					m.add(views.ViewOf(d.b), d.want, d.elem)
				}
			case 6, 7:
				// A descriptor is moved, never shared: only a sole holder
				// cuts it.
				if d != nil && d.holds == 1 && len(d.want) >= 2 {
					n := int(op>>3)%(len(d.want)-1) + 1
					rest := d.b.Split(n, views)
					m.add(rest, d.want[n:], d.elem)
					d.want = d.want[:n]
				}
			}
			m.check(t, pools, views)
		}
		for len(m.descs) > 0 {
			d := m.descs[0]
			d.b.Free()
			m.drop(d)
			m.check(t, pools, views)
		}
		for i, p := range pools {
			if p.Outstanding() != 0 {
				t.Fatalf("pool %d has %d elements out after every hold was freed", i, p.Outstanding())
			}
		}
		if views.Outstanding() != 0 {
			t.Fatalf("%d view descriptors out after every hold was freed", views.Outstanding())
		}
	})
}

// holdersModel is FuzzPoolHolders' account of what it holds.
type holdersModel struct {
	descs []*heldDesc // every descriptor with a hold left
}

// heldDesc is one descriptor the fuzzer holds: an element from Get, or a
// view from ViewOf or a Split cut over an element's bytes.
type heldDesc struct {
	b     *IOBuf
	holds int
	want  []byte    // what its view must read
	view  bool      // a view descriptor rather than the element itself
	elem  *heldElem // the element whose bytes it covers
}

// heldElem is one pool-born element's holders: its own descriptor's holds
// and one per view descriptor over its bytes.
type heldElem struct {
	pool    *Pool
	holders int
}

// add records a new view descriptor over el's bytes.
func (m *holdersModel) add(v *IOBuf, want []byte, el *heldElem) {
	el.holders++
	m.descs = append(m.descs, &heldDesc{b: v, holds: 1, want: want, view: true, elem: el})
}

// drop records one Free of d.
func (m *holdersModel) drop(d *heldDesc) {
	d.holds--
	if !d.view || d.holds == 0 {
		d.elem.holders-- // a view holds its element once, until its last Free
	}
	if d.holds == 0 {
		for i, e := range m.descs {
			if e == d {
				m.descs = append(m.descs[:i], m.descs[i+1:]...)
				break
			}
		}
	}
}

func (m *holdersModel) check(t *testing.T, pools []*Pool, views *Pool) {
	t.Helper()
	out := map[*Pool]int{}
	elems := map[*heldElem]bool{}
	nviews := 0
	for _, d := range m.descs {
		if d.b.holders <= 0 {
			t.Fatalf("a held descriptor has %d holders", d.b.holders)
		}
		if !bytes.Equal(d.b.Data(), d.want) {
			t.Fatalf("a held descriptor reads %x, want %x", d.b.Data(), d.want)
		}
		if d.view {
			nviews++
			if d.b.holders != int32(d.holds) {
				t.Fatalf("a view has %d holders, the model %d", d.b.holders, d.holds)
			}
		}
		elems[d.elem] = true
	}
	for el := range elems {
		if el.holders <= 0 {
			t.Fatalf("the model holds an element with %d holders", el.holders)
		}
		out[el.pool]++
	}
	for _, d := range m.descs {
		if !d.view && d.b.holders != int32(d.elem.holders) {
			t.Fatalf("an element has %d holders, the model %d", d.b.holders, d.elem.holders)
		}
	}
	for i, p := range pools {
		if p.Outstanding() != out[p] {
			t.Fatalf("pool %d has %d elements out, the model %d", i, p.Outstanding(), out[p])
		}
		if len(p.free) > p.keep {
			t.Fatalf("pool %d keeps %d spares, over its bound %d", i, len(p.free), p.keep)
		}
	}
	if views.Outstanding() != nviews {
		t.Fatalf("%d view descriptors out, the model %d", views.Outstanding(), nviews)
	}
}
