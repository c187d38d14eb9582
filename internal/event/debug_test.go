//go:build iobufdebug

package event

import (
	"fmt"
	"strings"
	"testing"
)

func keepsItsCtx(c *Ctx) { kept = c }

var kept *Ctx

// The guard itself: every use of a Ctx whose event has ended panics and
// names the handler the Ctx belonged to, even after its activation has run
// another event.
func TestFinishedCtxPanicsNamingTheHandler(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	mgrs[0].Spawn(keepsItsCtx)
	k.Run()
	mgrs[0].Spawn(func(*Ctx) {})
	k.Run()
	for name, use := range map[string]func(){
		"Charge":  func() { kept.Charge(1) },
		"Charged": func() { kept.Charged() },
		"Block":   func() { kept.Block(func(func()) {}) },
		"Now":     func() { kept.Now() },
		"Manager": func() { kept.Manager() },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "after its event ended") || !strings.Contains(msg, "keepsItsCtx") {
					t.Errorf("%s on a finished Ctx: recovered %q, want a panic naming keepsItsCtx", name, msg)
				}
			}()
			use()
		}()
	}
}
