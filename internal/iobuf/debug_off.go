//go:build !iobufdebug

package iobuf

const debugFree = false
