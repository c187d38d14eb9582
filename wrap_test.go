package ebbrt_test

import (
	"regexp"
	"testing"
)

// wrapSites is every call of iobuf.Wrap the non-test code may make, by
// file, with the reason it is not pool-born. Wrap allocates a descriptor
// per call; what the servers, the cluster client (the migrator's rounds
// included), the messenger and the GPOS socket send is written into the
// interface's payload elements, or lent through its view descriptors,
// instead (appnet.PoolsOf). Adding a line here is a design decision to
// argue in review.
var wrapSites = map[string]int{
	"internal/load/conn.go":             1, // the load generator's requests: the client under test is the server
	"internal/experiments/textproto.go": 1, // the demo transcript's scripted lines
}

func TestWrapCallSitesAreAllowlisted(t *testing.T) {
	checkCallSites(t, regexp.QuoteMeta("iobuf.Wrap("), wrapSites, 2)
}
