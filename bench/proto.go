package main

import "encoding/binary"

// The memcached binary protocol as the benchmark's own client speaks it
// (docs/PROTOCOL.md). Encoding and framing are re-implemented here so
// the generator's cost and behaviour do not move with the repository's
// helpers.

const (
	hdrLen      = 24
	magicReq    = 0x80
	magicResp   = 0x81
	opcodeGet   = 0x00
	opcodeSet   = 0x01
	statusOK    = 0x0000
	statusNoKey = 0x0001
	setExtras   = 8 // flags u32, exptime u32
)

type frameHdr struct {
	magic   byte
	opcode  byte
	keyLen  int
	extras  int
	status  uint16
	bodyLen int
	opaque  uint32
}

func parseHdr(b []byte) frameHdr {
	return frameHdr{
		magic:   b[0],
		opcode:  b[1],
		keyLen:  int(binary.BigEndian.Uint16(b[2:])),
		extras:  int(b[4]),
		status:  binary.BigEndian.Uint16(b[6:]),
		bodyLen: int(binary.BigEndian.Uint32(b[8:])),
		opaque:  binary.BigEndian.Uint32(b[12:]),
	}
}

func putReqHdr(b []byte, opcode byte, keyLen, extras, bodyLen int, opaque uint32) {
	b[0] = magicReq
	b[1] = opcode
	binary.BigEndian.PutUint16(b[2:], uint16(keyLen))
	b[4] = byte(extras)
	binary.BigEndian.PutUint32(b[8:], uint32(bodyLen))
	binary.BigEndian.PutUint32(b[12:], opaque)
}

func buildGet(key []byte, opaque uint32) []byte {
	b := make([]byte, hdrLen+len(key))
	putReqHdr(b, opcodeGet, len(key), 0, len(key), opaque)
	copy(b[hdrLen:], key)
	return b
}

// buildSet encodes a SET of version v of key k, generating the value
// straight into the packet.
func buildSet(p *population, k int, v uint32, opaque uint32) []byte {
	key := p.keys[k]
	body := setExtras + len(key) + p.valueLen(k, v)
	b := make([]byte, hdrLen+body)
	putReqHdr(b, opcodeSet, len(key), setExtras, body, opaque)
	copy(b[hdrLen+setExtras:], key)
	p.fill(b[hdrLen+setExtras+len(key):], k, v)
	return b
}

// frameScanner follows a binary-protocol byte stream as it crosses an
// interface the tracer wraps and reports each frame header it passes,
// without copying bodies. The traced run uses it to tell which arrival
// a segment belongs to.
type frameScanner struct {
	hdr  [hdrLen]byte
	have int // header bytes collected
	skip int // body bytes still to pass
}

func (s *frameScanner) feed(data []byte, onFrame func(h frameHdr)) {
	for len(data) > 0 {
		if s.skip > 0 {
			n := min(s.skip, len(data))
			s.skip -= n
			data = data[n:]
			continue
		}
		n := copy(s.hdr[s.have:], data)
		s.have += n
		data = data[n:]
		if s.have == hdrLen {
			h := parseHdr(s.hdr[:])
			s.have = 0
			s.skip = h.bodyLen
			onFrame(h)
		}
	}
}
