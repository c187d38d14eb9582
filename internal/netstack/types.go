// Package netstack is EbbRT's custom network stack (paper §3.6): Ethernet,
// ARP, IPv4 and TCP, providing an event-driven zero-copy interface to
// applications.
//
// It carries what the applications here use and no more. The paper's
// stack also has UDP and DHCP; here nothing sends a datagram, every
// interface gets a static address (AddInterface), and IPv4 broadcasts are
// dropped. ARP's request is the only broadcast the stack sends.
//
// The stack deliberately omits the BSD socket layer. Received data flows
// synchronously from the device driver through the stack into an
// application handler as an IOBuf view - no stack-side buffering, no
// copies. Transmit accepts IOBuf chains (scatter/gather). Applications
// manage their own pacing: they control the advertised receive window and
// must check the remote send window before sending, which lets them make
// their own aggregation/latency trade-offs instead of inheriting Nagle's
// algorithm.
//
// Connection state lives in an RCU hash table and each connection is
// manipulated only on the core chosen when it was established, so common
// case operations require no synchronization.
package netstack

import (
	"fmt"

	"ebbrt/internal/machine"
)

// EthAddr is an Ethernet MAC address (the machine package's MAC).
type EthAddr = machine.MAC

// EtherType values used by the stack.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// ProtoTCP is the IP protocol number of TCP, the one transport the stack
// carries.
const ProtoTCP byte = 6

// Ipv4Addr is an IPv4 address in network byte order.
type Ipv4Addr [4]byte

// IP constructs an address from octets.
func IP(a, b, c, d byte) Ipv4Addr { return Ipv4Addr{a, b, c, d} }

// String renders dotted-quad form.
func (a Ipv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a host-order integer.
func (a Ipv4Addr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IsZero reports whether the address is the unspecified 0.0.0.0.
func (a Ipv4Addr) IsZero() bool { return a == Ipv4Addr{} }

// SameSubnet reports whether two addresses share a network under the mask.
func SameSubnet(a, b, mask Ipv4Addr) bool {
	for i := range a {
		if a[i]&mask[i] != b[i]&mask[i] {
			return false
		}
	}
	return true
}

// Checksum computes the Internet checksum (RFC 1071) over data with an
// initial partial sum, for chaining across pseudo-headers.
func Checksum(data []byte, initial uint32) uint16 {
	sum := initial
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// FlowHash computes the symmetric flow hash used for receive-side scaling.
// It is symmetric in (addr,port) pairs so both directions of a connection
// hash to the same queue on their respective NICs, modeling the symmetric
// Toeplitz configuration used for connection-to-core affinity.
func FlowHash(aIP Ipv4Addr, aPort uint16, bIP Ipv4Addr, bPort uint16) uint32 {
	x := uint64(aIP.Uint32())<<16 | uint64(aPort)
	y := uint64(bIP.Uint32())<<16 | uint64(bPort)
	// Symmetric combine.
	s := x + y
	p := x ^ y
	h := s*0x9e3779b97f4a7c15 ^ p*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}
