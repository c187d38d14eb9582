//go:build !iobufdebug

package event

// CheckedCtx is false without the iobufdebug build tag: an event's Ctx lives
// in its pooled activation and is cleared when the event ends.
const CheckedCtx = false
