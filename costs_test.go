package ebbrt_test

import "testing"

// costLiteral is a literal multiplied by a nanosecond or a microsecond:
// the shape of a virtual-time cost written where it is charged.
const costLiteral = `\b[0-9][0-9_.eE]*\s*\*\s*sim\.(Nanosecond|Microsecond)\b|\bsim\.(Nanosecond|Microsecond)\s*\*\s*[0-9]`

// costSites is every such literal the non-test code outside the cost
// table (internal/costs) may hold, by file, with the reason it is not a
// cost. A cost belongs in the table, tagged with its unit and where its
// value comes from; adding a line here instead is a design decision to
// argue in review.
var costSites = map[string]int{
	"internal/audit/expect.go":           1, // RunUntilMatch's poll step: how often a test looks, not what anything costs
	"internal/experiments/figures456.go": 1, // the paper's 500 µs p99 SLA: a bound on the result, not a cost
}

func TestCostLiteralsLiveInTheTable(t *testing.T) {
	checkCallSites(t, costLiteral, costSites, 2, "internal/costs")
}
