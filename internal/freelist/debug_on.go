//go:build iobufdebug

package freelist

// Checked is true under the iobufdebug build tag: Put keeps a released
// object off the list and marked, Get always builds a fresh one, and any
// use of a released object that calls Live panics. Results are the same
// with and without it.
const Checked = true
