//go:build iobufdebug

package event

// CheckedCtx is true under the iobufdebug build tag: every event gets a Ctx
// of its own - one more object per dispatch - that stays marked finished
// after the event, and any use of a finished Ctx panics, naming the handler
// it belonged to. Results are the same with and without it.
const CheckedCtx = true
