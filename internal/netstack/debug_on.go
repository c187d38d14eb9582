//go:build iobufdebug

package netstack

// checkSent is true under the iobufdebug build tag: each segment's payload
// is checksummed when it is first sent and verified before every
// retransmission and at its acknowledgment, and a change panics. Bytes
// handed to Send are never written again (the iobuf package comment); a
// holder that recycles or rewrites them while they are in flight breaks
// the run here. Results are the same with and without it.
const checkSent = true
