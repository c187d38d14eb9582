// Package memcached re-implements memcached directly against the EbbRT
// interfaces (paper §4.2): a multi-core key-value server storing pairs
// in an RCU hash table (with a globally-locked ablation), handling each
// request synchronously from the network stack.
//
// The server speaks both standard memcached wire protocols on the same
// listener - the binary protocol (this file) and the ASCII text
// protocol (textproto.go) - auto-detected per connection from the first
// byte: 0x80 is the binary request magic, anything else begins a text
// command line. docs/PROTOCOL.md is the wire-format reference for both.
//
// The same server logic runs over the GPOS baseline through the appnet
// abstraction, which is how Figures 5 and 6 compare systems.
package memcached

import (
	"encoding/binary"
	"fmt"
)

// Binary protocol magics.
const (
	MagicRequest  = 0x80
	MagicResponse = 0x81
)

// Opcodes used by the mutilate-style workload and the migration stream.
const (
	OpGet       = 0x00
	OpSet       = 0x01
	OpAdd       = 0x02
	OpDelete    = 0x04
	OpIncrement = 0x05
	OpDecrement = 0x06
	OpFlush     = 0x08
	OpNoop      = 0x0a
	OpGetQ      = 0x09
	OpStat      = 0x10
	OpAppend    = 0x0e
	OpPrepend   = 0x0f
	OpSetQ      = 0x11
	OpAddQ      = 0x12
	OpTouch     = 0x1c
)

// Response status codes.
const (
	StatusOK          = 0x0000
	StatusKeyNotFound = 0x0001
	StatusKeyExists   = 0x0002
	StatusValueTooBig = 0x0003
	StatusNotStored   = 0x0005
	StatusDeltaBadval = 0x0006
	StatusUnknownCmd  = 0x0081
	StatusOutOfMemory = 0x0082
)

// HeaderLen is the fixed binary-protocol header size.
const HeaderLen = 24

// Header is the binary protocol packet header (request or response).
type Header struct {
	Magic     byte
	Opcode    byte
	KeyLen    uint16
	ExtrasLen byte
	Status    uint16 // vbucket id in requests
	BodyLen   uint32 // total body: extras + key + value
	Opaque    uint32
	CAS       uint64
}

// ParseHeader decodes a 24-byte header.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("memcached: short header (%d)", len(b))
	}
	h := Header{
		Magic:     b[0],
		Opcode:    b[1],
		KeyLen:    binary.BigEndian.Uint16(b[2:4]),
		ExtrasLen: b[4],
		Status:    binary.BigEndian.Uint16(b[6:8]),
		BodyLen:   binary.BigEndian.Uint32(b[8:12]),
		Opaque:    binary.BigEndian.Uint32(b[12:16]),
		CAS:       binary.BigEndian.Uint64(b[16:24]),
	}
	if int(h.KeyLen)+int(h.ExtrasLen) > int(h.BodyLen) {
		return Header{}, fmt.Errorf("memcached: inconsistent lengths key=%d extras=%d body=%d",
			h.KeyLen, h.ExtrasLen, h.BodyLen)
	}
	return h, nil
}

// Reserve is the size a partially received packet will reach, for sizing
// a reassembly buffer once: 0 until NextFrame has seen the header. The
// peer announced the body length, so it is capped at stock memcached's
// item limit.
func (h Header) Reserve() int {
	if h.Magic == 0 {
		return 0
	}
	return HeaderLen + min(int(h.BodyLen), MaxTextValue)
}

// WriteHeader encodes h into b (at least HeaderLen bytes).
func WriteHeader(b []byte, h Header) {
	b[0] = h.Magic
	b[1] = h.Opcode
	binary.BigEndian.PutUint16(b[2:4], h.KeyLen)
	b[4] = h.ExtrasLen
	b[5] = 0 // data type
	binary.BigEndian.PutUint16(b[6:8], h.Status)
	binary.BigEndian.PutUint32(b[8:12], h.BodyLen)
	binary.BigEndian.PutUint32(b[12:16], h.Opaque)
	binary.BigEndian.PutUint64(b[16:24], h.CAS)
}

// Request is one binary-protocol request before its opaque is known: Len
// sizes its frame and Put writes it, so that a client can write the frame
// straight into the memory it sends from. Build writes it into a fresh
// slice. Extras are set by the constructors below.
type Request struct {
	Opcode     byte
	Key, Value []byte
	CAS        uint64 // a version stamp on SET, ADD and DELETE, else 0
	extras     [CounterExtrasLen]byte
	nExtras    byte
}

func (r *Request) extra32(v uint32) {
	binary.BigEndian.PutUint32(r.extras[r.nExtras:], v)
	r.nExtras += 4
}

func (r *Request) extra64(v uint64) {
	binary.BigEndian.PutUint64(r.extras[r.nExtras:], v)
	r.nExtras += 8
}

// Len is the size of the request's frame.
func (r *Request) Len() int { return r.HeadLen() + len(r.Value) }

// HeadLen is the size of the frame's head: header, extras and key.
func (r *Request) HeadLen() int { return HeaderLen + int(r.nExtras) + len(r.Key) }

// Put writes the request's frame, with the given opaque, into b (at least
// Len bytes).
func (r *Request) Put(b []byte, opaque uint32) {
	copy(b[r.PutHead(b, opaque):], r.Value)
}

// PutHead writes the frame's head, with the given opaque, into b (at
// least HeadLen bytes) and returns its length; the value follows it on
// the wire.
func (r *Request) PutHead(b []byte, opaque uint32) int {
	WriteHeader(b, Header{
		Magic: MagicRequest, Opcode: r.Opcode,
		KeyLen: uint16(len(r.Key)), ExtrasLen: r.nExtras,
		BodyLen: uint32(r.Len() - HeaderLen), Opaque: opaque, CAS: r.CAS,
	})
	n := HeaderLen + copy(b[HeaderLen:], r.extras[:r.nExtras])
	return n + copy(b[n:], r.Key)
}

// Build encodes the request into a fresh slice.
func (r Request) Build(opaque uint32) []byte {
	b := make([]byte, r.Len())
	r.Put(b, opaque)
	return b
}

// BuildGet encodes a GET request.
func BuildGet(key []byte, opaque uint32) []byte {
	return Request{Opcode: OpGet, Key: key}.Build(opaque)
}

// BuildSet encodes a SET request with flags and zero expiry.
func BuildSet(key, value []byte, flags uint32, opaque uint32) []byte {
	return BuildSetStamped(key, value, flags, opaque, 0)
}

// BuildSetStamped encodes a SET carrying a version stamp in the request
// header's CAS field. A nonzero stamp selects the replica-stamped store
// rule (docs/PROTOCOL.md "Version stamps"): the server stores the entry
// with exactly this CAS - never re-minting from its local counter - and
// applies it only if the stamp is newer than the entry it would replace,
// so replicas of one key converge on the same {value, stamp} no matter
// the delivery order. stamp 0 is a plain SET (server-minted CAS).
func BuildSetStamped(key, value []byte, flags uint32, opaque uint32, stamp uint64) []byte {
	return storeRequest(OpSet, key, value, flags, stamp).Build(opaque)
}

// storeRequest is a SET or ADD with the stock extras: flags, and an
// exptime of 0.
func storeRequest(op byte, key, value []byte, flags uint32, stamp uint64) Request {
	r := Request{Opcode: op, Key: key, Value: value, CAS: stamp}
	r.extra32(flags)
	r.extra32(0)
	return r
}

// GetResponseExtrasLen is the extras block carried on GET responses:
// the stock 4-byte flags field followed by the entry's absolute expiry
// as a signed 64-bit virtual time (0 = never). Stock memcached sends
// only the flags; the expiry extension is what lets the cluster
// client's hot-key cache expire cached values at the origin's deadline
// instead of serving them until its own TTL runs out. Consumers that
// only want flags read the first 4 bytes and ignore the rest.
const GetResponseExtrasLen = 12

// SetAbsExpiryExtrasLen marks the internal SET/ADD extras dialect:
// extras of exactly 8 bytes are the stock {flags u32, exptime u32}
// (exptime resolved by the server under the stock relative/absolute
// rules), while extras of this length carry {flags u32, expiry i64} -
// the entry's absolute virtual expiry, stored verbatim. Migration and
// read-repair use the latter so a transferred entry keeps its exact
// deadline; re-encoding as whole seconds would shift it.
const SetAbsExpiryExtrasLen = 12

// SetAbsExpiryRequest is a stamped SET carrying an absolute virtual
// expiry verbatim (the internal dialect above). Read-repair uses it to
// copy an entry to a stale replica without disturbing its deadline.
func SetAbsExpiryRequest(key, value []byte, flags uint32, stamp uint64, expires int64) Request {
	return absRequest(OpSet, key, value, flags, stamp, expires)
}

// SetQAbsExpiryRequest is SetAbsExpiryRequest's quiet twin. The
// migration stream uses it so a transferred entry arrives at its new
// owner with both the stamp and the deadline the surviving replicas
// hold, without a response per key; the stamped store rule makes it a
// no-op against a newer value or tombstone there.
func SetQAbsExpiryRequest(key, value []byte, flags uint32, stamp uint64, expires int64) Request {
	return absRequest(OpSetQ, key, value, flags, stamp, expires)
}

func absRequest(op byte, key, value []byte, flags uint32, stamp uint64, expires int64) Request {
	r := Request{Opcode: op, Key: key, Value: value, CAS: stamp}
	r.extra32(flags)
	r.extra64(uint64(expires))
	return r
}

// CounterExtrasLen is the extras block on INCREMENT/DECREMENT requests:
// {delta u64, initial u64, exptime u32}, per the stock binary protocol.
const CounterExtrasLen = 20

// CounterNoCreate is the INCREMENT/DECREMENT exptime meaning "do not
// create on miss" (stock memcached's 0xffffffff sentinel).
const CounterNoCreate = 0xffffffff

// NextFrame splits one complete packet off the head of a byte stream.
// It is the single implementation of the protocol's framing rule,
// shared by the server, the cluster client, and the load generator. It
// returns n == 0 (and no error) while data holds only a partial packet;
// it returns an error as soon as the header is malformed or carries the
// wrong magic - without waiting for the body, since a desynced stream
// never resynchronizes and the connection should be torn down.
func NextFrame(data []byte, magic byte) (hdr Header, body []byte, n int, err error) {
	if len(data) < HeaderLen {
		return Header{}, nil, 0, nil
	}
	hdr, err = ParseHeader(data)
	if err != nil {
		return Header{}, nil, 0, err
	}
	if hdr.Magic != magic {
		return Header{}, nil, 0, fmt.Errorf("memcached: magic %#x, want %#x", hdr.Magic, magic)
	}
	total := HeaderLen + int(hdr.BodyLen)
	if len(data) < total {
		return hdr, nil, 0, nil
	}
	return hdr, data[HeaderLen:total], total, nil
}
