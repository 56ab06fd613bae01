// Package suspendsafe flags locks and tickets held across suspension
// points of the async measurement engine. A suspension point is a call
// that may park the current measurement — the probe pool's async
// submission, the engine's resumable state machine — declared at the
// callee with //revtr:suspends <why> (on a function or an interface
// method) and propagated transitively up the goroutine-local call
// graph. A mutex or channel-semaphore slot held at such a call is held
// for the whole suspension: under the 10k-in-flight regime that parks
// an arbitrary number of other measurements behind one suspended one.
//
// An intentional hold is excused at the call site with
// //revtr:heldacross <why> — the atlas read-lock pinned across an
// asynchronous batch measurement is the canonical case.
package suspendsafe

import (
	"go/types"
	"sort"
	"strings"

	"revtr/internal/lint/directive"
	"revtr/internal/lint/flow"
)

// Analyzer is the suspendsafe analyzer.
var Analyzer = &flow.Analyzer{
	Name: "suspendsafe",
	Doc:  "no lock, ticket, or quota slot may be held across a measurement suspension point",
	Run:  run,
}

func run(pass *flow.Pass) {
	prog := pass.Prog
	may := prog.SuspendSeeds()

	// Propagate "may suspend" up the call graph to a fixpoint: a caller
	// of a suspending function suspends too (the park happens beneath
	// it, with the caller's locks held).
	funcs := prog.SortedFuncs()
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if may[fi.Fn] {
				continue
			}
			for _, callee := range prog.Callees(fi.Fn) {
				if may[callee] {
					may[fi.Fn] = true
					changed = true
					break
				}
			}
		}
	}

	for _, fi := range funcs {
		facts := prog.LockFacts(fi.Fn)
		if facts == nil {
			continue
		}
		for _, c := range facts.Calls {
			if c.Callee == nil || !may[c.Callee] || len(c.Holding) == 0 {
				continue
			}
			if prog.Allows(c.Pos, directive.HeldAcross) {
				continue
			}
			pass.Reportf(c.Pos,
				"%s held across a suspension point (%s may suspend the measurement); a parked machine keeps it indefinitely — release before the call or annotate //revtr:heldacross <why>",
				describe(c.Holding), calleeName(c.Callee))
		}
	}
}

// describe renders the held set for the message, locks before tickets,
// each sorted by spelling.
func describe(holding []flow.Held) string {
	var locks, tickets []string
	for _, h := range holding {
		if h.Ticket {
			tickets = append(tickets, h.Render)
		} else if h.Read {
			locks = append(locks, h.Render+" (read)")
		} else {
			locks = append(locks, h.Render)
		}
	}
	sort.Strings(locks)
	sort.Strings(tickets)
	var parts []string
	if len(locks) > 0 {
		noun := "lock "
		if len(locks) > 1 {
			noun = "locks "
		}
		parts = append(parts, noun+strings.Join(locks, ", "))
	}
	if len(tickets) > 0 {
		noun := "ticket "
		if len(tickets) > 1 {
			noun = "tickets "
		}
		parts = append(parts, noun+strings.Join(tickets, ", "))
	}
	return strings.Join(parts, " and ")
}

func calleeName(fn *types.Func) string {
	if key := flow.FuncKey(fn); key != "" {
		return key
	}
	return fn.Name()
}
