//go:build iobufdebug

package iobuf

// debugFree selects the use-after-free check: the last Free of a pool-born
// element poisons its bytes and Get verifies the poison. Results are the
// same with and without it.
const debugFree = true
