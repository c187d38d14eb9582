package iobuf

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestViewManipulation(t *testing.T) {
	b := New(100)
	if b.Length() != 0 || b.Capacity() != 100 || b.Tailroom() != 100 {
		t.Fatal("fresh buffer geometry wrong")
	}
	region := b.Append(10)
	copy(region, "0123456789")
	if string(b.Data()) != "0123456789" {
		t.Fatalf("Data = %q", b.Data())
	}
	b.Advance(4)
	if string(b.Data()) != "456789" || b.Headroom() != 4 {
		t.Fatalf("after Advance: %q headroom=%d", b.Data(), b.Headroom())
	}
	b.Retreat(2)
	if string(b.Data()) != "23456789" {
		t.Fatalf("after Retreat: %q", b.Data())
	}
	b.TrimEnd(3)
	if string(b.Data()) != "23456" {
		t.Fatalf("after TrimEnd: %q", b.Data())
	}
}

func TestViewPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*IOBuf)
	}{
		{"advance-overflow", func(b *IOBuf) { b.Advance(11) }},
		{"retreat-overflow", func(b *IOBuf) { b.Retreat(1) }},
		{"append-overflow", func(b *IOBuf) { b.Append(1000) }},
		{"trim-overflow", func(b *IOBuf) { b.TrimEnd(11) }},
		{"advance-negative", func(b *IOBuf) { b.Advance(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New(20)
			b.Append(10)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn(b)
		})
	}
}

func TestFromBytesCopies(t *testing.T) {
	src := []byte("hello")
	b := FromBytes(src)
	src[0] = 'X'
	if string(b.Data()) != "hello" {
		t.Fatal("FromBytes did not copy")
	}
}

func TestWrapAliases(t *testing.T) {
	src := []byte("hello")
	b := Wrap(src)
	src[0] = 'X'
	if string(b.Data()) != "Xello" {
		t.Fatal("Wrap should alias")
	}
}

func TestChaining(t *testing.T) {
	a := FromBytes([]byte("aa"))
	b := FromBytes([]byte("bb"))
	c := FromBytes([]byte("cc"))
	a.AppendChain(b)
	a.AppendChain(c)
	if a.CountChainElements() != 3 {
		t.Fatalf("elements = %d", a.CountChainElements())
	}
	if a.ComputeChainDataLength() != 6 {
		t.Fatalf("chain length = %d", a.ComputeChainDataLength())
	}
	if got := a.CopyOut(); !bytes.Equal(got, []byte("aabbcc")) {
		t.Fatalf("CopyOut = %q", got)
	}
	if a.Next() != b || b.Next() != c || c.Next() != a {
		t.Fatal("next pointers wrong")
	}
	if a.Prev() != c {
		t.Fatal("prev pointer wrong")
	}
}

func TestAppendChainOfChains(t *testing.T) {
	a := FromBytes([]byte("a"))
	b := FromBytes([]byte("b"))
	a.AppendChain(b)
	c := FromBytes([]byte("c"))
	d := FromBytes([]byte("d"))
	c.AppendChain(d)
	a.AppendChain(c)
	if got := a.CopyOut(); !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("CopyOut = %q", got)
	}
	if a.CountChainElements() != 4 {
		t.Fatalf("elements = %d", a.CountChainElements())
	}
}

func TestUnlink(t *testing.T) {
	a := FromBytes([]byte("a"))
	b := FromBytes([]byte("b"))
	c := FromBytes([]byte("c"))
	a.AppendChain(b)
	a.AppendChain(c)
	rest := b.Unlink()
	if rest != c {
		t.Fatal("Unlink should return following element")
	}
	if b.IsChained() {
		t.Fatal("unlinked element still chained")
	}
	if got := a.CopyOut(); !bytes.Equal(got, []byte("ac")) {
		t.Fatalf("after unlink chain = %q", got)
	}
	if a.Unlink(); a.IsChained() {
		t.Fatal("unlink pair failed")
	}
	if FromBytes([]byte("x")).Unlink() != nil {
		t.Fatal("Unlink singleton should return nil")
	}
}

func TestForEachOrder(t *testing.T) {
	a := FromBytes([]byte("1"))
	a.AppendChain(FromBytes([]byte("2")))
	a.AppendChain(FromBytes([]byte("3")))
	var out []byte
	a.ForEach(func(e *IOBuf) { out = append(out, e.Data()...) })
	if string(out) != "123" {
		t.Fatalf("ForEach order %q", out)
	}
}

func TestDataPointerSingleElement(t *testing.T) {
	b := FromBytes([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x01, 0x02})
	p := b.Reader()
	if p.Remaining() != 10 {
		t.Fatalf("Remaining = %d", p.Remaining())
	}
	v16, err := p.ReadUint16()
	if err != nil || v16 != 0x1234 {
		t.Fatalf("ReadUint16 = %x, %v", v16, err)
	}
	v32, err := p.ReadUint32()
	if err != nil || v32 != 0x56789abc {
		t.Fatalf("ReadUint32 = %x, %v", v32, err)
	}
	if err := p.Skip(2); err != nil {
		t.Fatal(err)
	}
	c, err := p.ReadByte()
	if err != nil || c != 0x01 {
		t.Fatalf("ReadByte = %x, %v", c, err)
	}
	if p.Remaining() != 1 {
		t.Fatalf("Remaining = %d", p.Remaining())
	}
}

func TestDataPointerAcrossChain(t *testing.T) {
	a := FromBytes([]byte{0xde, 0xad})
	a.AppendChain(FromBytes([]byte{0xbe}))
	a.AppendChain(FromBytes([]byte{0xef, 0x12, 0x34, 0x56, 0x78, 0x9a}))
	p := a.Reader()
	v, err := p.ReadUint32()
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("straddling ReadUint32 = %x, %v", v, err)
	}
	v64buf, err := p.ReadBytes(5)
	if err != nil || !bytes.Equal(v64buf, []byte{0x12, 0x34, 0x56, 0x78, 0x9a}) {
		t.Fatalf("ReadBytes = %x, %v", v64buf, err)
	}
	if _, err := p.ReadByte(); err == nil {
		t.Fatal("read past end should fail")
	}
}

func TestDataPointerEmptyElements(t *testing.T) {
	a := FromBytes([]byte("ab"))
	a.AppendChain(New(10)) // empty view
	a.AppendChain(FromBytes([]byte("cd")))
	p := a.Reader()
	got, err := p.ReadBytes(4)
	if err != nil || string(got) != "abcd" {
		t.Fatalf("ReadBytes = %q, %v", got, err)
	}
}

func TestDataPointerSkipPastEnd(t *testing.T) {
	b := FromBytes([]byte("abc"))
	p := b.Reader()
	if err := p.Skip(4); err == nil {
		t.Fatal("Skip past end should fail")
	}
}

func TestDataPointerUint64(t *testing.T) {
	b := FromBytes([]byte{0, 0, 0, 0, 0, 0, 0x12, 0x34})
	v, err := b.Reader().ReadUint64()
	if err != nil || v != 0x1234 {
		t.Fatalf("ReadUint64 = %x, %v", v, err)
	}
}

// Property: any split of a byte string into chain elements preserves the
// data under CopyOut and DataPointer traversal.
func TestChainSplitProperty(t *testing.T) {
	prop := func(data []byte, cuts []uint8) bool {
		head := New(0)
		rest := data
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c)%len(rest) + 1
			head.AppendChain(FromBytes(rest[:n]))
			rest = rest[n:]
		}
		if len(rest) > 0 {
			head.AppendChain(FromBytes(rest))
		}
		if head.ComputeChainDataLength() != len(data) {
			return false
		}
		if !bytes.Equal(head.CopyOut(), data) {
			return false
		}
		p := head.Reader()
		got, err := p.ReadBytes(len(data))
		if len(data) == 0 {
			return err == nil
		}
		return err == nil && bytes.Equal(got, data) && p.Remaining() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// chainOf cuts data into a chain with an element boundary at each offset
// in cuts (ascending, inside data), sharing data's backing bytes.
func chainOf(data []byte, cuts ...int) *IOBuf {
	var head *IOBuf
	from := 0
	for _, to := range append(cuts, len(data)) {
		e := Wrap(data[from:to])
		if head == nil {
			head = e
		} else {
			head.AppendChain(e)
		}
		from = to
	}
	return head
}

// A 24-byte header read through the cursor comes out whole wherever the
// element boundary falls, and a read past the end fails without consuming.
func TestReadBytesAcrossEverySplitOfAHeader(t *testing.T) {
	hdr := []byte("0123456789abcdefghijklmn")
	for cut := 0; cut <= len(hdr); cut++ {
		for _, second := range []int{cut, min(cut+5, len(hdr))} {
			p := chainOf(hdr, cut, second).Reader()
			if _, err := p.ReadBytes(len(hdr) + 1); err == nil {
				t.Fatalf("cut %d/%d: read past the end succeeded", cut, second)
			}
			magic, err := p.ReadBytes(2)
			if err != nil || string(magic) != "01" {
				t.Fatalf("cut %d/%d: first two bytes %q, %v", cut, second, magic, err)
			}
			rest, err := p.ReadBytes(len(hdr) - 2)
			if err != nil || !bytes.Equal(rest, hdr[2:]) || p.Remaining() != 0 {
				t.Fatalf("cut %d/%d: rest %q, %v, %d remaining", cut, second, rest, err, p.Remaining())
			}
		}
	}
}

// Split at every offset of every two-cut shape of a buffer: both halves
// carry the right bytes, no byte is copied, and neither half can grow or
// retreat into the other.
func TestSplitEveryOffset(t *testing.T) {
	data := []byte("the quick brown fox jumps")
	for a := 0; a <= len(data); a++ {
		for b := a; b <= len(data); b += 3 {
			for n := 1; n <= len(data)+1; n++ {
				head := chainOf(data, a, b)
				rest := head.Split(n, nil)
				if got := head.CopyOut(); !bytes.Equal(got, data[:min(n, len(data))]) {
					t.Fatalf("cuts %d,%d split %d: head %q", a, b, n, got)
				}
				if n >= len(data) {
					if rest != nil {
						t.Fatalf("cuts %d,%d split %d: rest %q, want nil", a, b, n, rest.CopyOut())
					}
					continue
				}
				if got := rest.CopyOut(); !bytes.Equal(got, data[n:]) {
					t.Fatalf("cuts %d,%d split %d: rest %q", a, b, n, got)
				}
				if &rest.Data()[0] != &data[n] {
					t.Fatalf("cuts %d,%d split %d: the rest was copied", a, b, n)
				}
				if head.Prev().Tailroom() != 0 || rest.Headroom() != 0 {
					t.Fatalf("cuts %d,%d split %d: the halves can reach each other's bytes", a, b, n)
				}
				// The rings are closed: walking either returns to its head.
				if head.CountChainElements()+rest.CountChainElements() > 4 {
					t.Fatalf("cuts %d,%d split %d: %d+%d elements", a, b, n, head.CountChainElements(), rest.CountChainElements())
				}
			}
		}
	}
}

// Stream hands a parser the delivery itself when it can, the accumulated
// bytes when it must, and never re-copies what it already holds.
func TestStream(t *testing.T) {
	var s Stream
	one := []byte("abcdef")
	data := s.Take(Wrap(one))
	if &data[0] != &one[0] {
		t.Fatal("a single-element delivery with nothing pending was copied")
	}
	s.Keep(data, 4, 0) // "ef" is a partial record
	if s.Len() != 2 || one[4] != 'e' {
		t.Fatalf("pending %d bytes", s.Len())
	}
	data = s.Take(chainOf([]byte("ghij"), 1))
	if string(data) != "efghij" {
		t.Fatalf("second take %q", data)
	}
	held := &data[0]
	s.Keep(data, 0, 64) // nothing parsed, the record will be 64 bytes
	data = s.Take(Wrap([]byte("kl")))
	if string(data) != "efghijkl" || cap(data) < 64 {
		t.Fatalf("third take %q cap %d", data, cap(data))
	}
	reserved := &data[0]
	if reserved == held {
		t.Fatal("Keep did not reserve")
	}
	s.Keep(data, 0, 64)
	if data = s.Take(Wrap([]byte("m"))); &data[0] != reserved {
		t.Fatal("an unparsed tail was copied again")
	}
	s.Keep(data, 3, 0)
	if data = s.Take(Wrap(nil)); string(data) != "hijklm" {
		t.Fatalf("after consuming three: %q", data)
	}
	s.Keep(data, len(data), 0)
	if s.Len() != 0 {
		t.Fatalf("%d bytes pending after everything was consumed", s.Len())
	}
	if data = s.Take(Wrap(one)); &data[0] != &one[0] {
		t.Fatal("back to empty, but the delivery was copied")
	}
}
