package netstack

import (
	"encoding/binary"

	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// ICMP echo support: the stack answers pings (useful for bring-up
// debugging of native instances) and can originate them, returning the
// round-trip time as a future.

const (
	icmpEchoReply   = 0
	icmpEchoRequest = 8
	icmpHeaderLen   = 8
)

// pingState tracks an outstanding echo request.
type pingState struct {
	sentAt  sim.Time
	promise future.Promise[sim.Time]
}

// receiveIcmp handles an inbound ICMP packet (buf views the ICMP header).
func (itf *Interface) receiveIcmp(c *event.Ctx, hdr Ipv4Header, buf *iobuf.IOBuf) {
	data := buf.CopyOut()
	if len(data) < icmpHeaderLen {
		return
	}
	switch data[0] {
	case icmpEchoRequest:
		// Echo back: same identifier/sequence/payload, type 0. data is
		// already this handler's own copy, so it becomes the reply.
		data[0] = icmpEchoReply
		data[2], data[3] = 0, 0
		ck := Checksum(data, 0)
		binary.BigEndian.PutUint16(data[2:4], ck)
		itf.sendIcmp(c, hdr.Src, data)
	case icmpEchoReply:
		id := binary.BigEndian.Uint16(data[4:6])
		seq := binary.BigEndian.Uint16(data[6:8])
		key := uint32(id)<<16 | uint32(seq)
		if st, ok := itf.pings[key]; ok {
			delete(itf.pings, key)
			st.promise.SetValue(c.Now() - st.sentAt)
		}
	}
}

func (itf *Interface) sendIcmp(c *event.Ctx, dst Ipv4Addr, icmp []byte) {
	buf, _ := itf.newPacket(ProtoICMP, dst, 0, len(icmp))
	buf.AppendChain(itf.views.View(icmp))
	_ = itf.EthArpSend(c, EtherTypeIPv4, dst, buf, FlowHash(itf.Addr, 0, dst, 0))
}

// Ping sends an ICMP echo request with the given sequence number and
// returns a future fulfilled with the round-trip time.
func (itf *Interface) Ping(c *event.Ctx, dst Ipv4Addr, seq uint16) future.Future[sim.Time] {
	if itf.pings == nil {
		itf.pings = map[uint32]*pingState{}
	}
	const id = 0xeb
	key := uint32(id)<<16 | uint32(seq)
	st := &pingState{sentAt: c.Now(), promise: future.NewPromise[sim.Time]()}
	itf.pings[key] = st

	pkt := make([]byte, icmpHeaderLen+48)
	pkt[0] = icmpEchoRequest
	binary.BigEndian.PutUint16(pkt[4:6], id)
	binary.BigEndian.PutUint16(pkt[6:8], seq)
	for i := icmpHeaderLen; i < len(pkt); i++ {
		pkt[i] = byte(i)
	}
	ck := Checksum(pkt, 0)
	binary.BigEndian.PutUint16(pkt[2:4], ck)
	itf.sendIcmp(c, dst, pkt)

	c.Manager().After(arpTimeout*10, func(*event.Ctx) {
		if cur, ok := itf.pings[key]; ok && cur == st {
			delete(itf.pings, key)
			st.promise.SetError(errPingTimeout)
		}
	})
	return st.promise.Future()
}

var errPingTimeout = errTimeout("netstack: ping timed out")

type errTimeout string

func (e errTimeout) Error() string { return string(e) }
