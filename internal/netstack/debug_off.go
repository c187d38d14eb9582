//go:build !iobufdebug

package netstack

const checkSent = false
