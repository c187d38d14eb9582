package memcached

import (
	"strconv"

	"ebbrt/internal/mem"
	"ebbrt/internal/sim"
)

// The `stats` surface: both protocols render the same counters - the
// text protocol as `STAT <name> <value>` lines ending in END, the
// binary protocol as one OpStat response packet per line ending in an
// empty-key terminator. Everything reported is driven by live server
// and store state; nothing here is synthesized for looks except `pid`
// (the simulation has no processes) and `pointer_size`.

// statLine is one rendered statistic.
type statLine struct {
	name  string
	value string
}

// statPid is what `pid` reports: the simulation has no OS processes, so
// every server claims the classic first user pid.
const statPid = 1

// statLines renders one stats group: "" is the general group, "items"
// and "slabs" the per-size-class groups (meaningful for the bounded
// slab-classed store; the unbounded tables have no classes and report
// the empty set, as stock does before any item is stored). ok=false
// means the group name is not recognized.
func (s *Server) statLines(group string, now sim.Time) ([]statLine, bool) {
	switch group {
	case "":
		return s.generalStats(now), true
	case "items":
		return s.itemsStats(), true
	case "slabs":
		return s.slabsStats(), true
	}
	return nil, false
}

func u(v uint64) string { return strconv.FormatUint(v, 10) }
func d(v int) string    { return strconv.Itoa(v) }

// generalStats renders the top-level counter block in stock field
// order. cmd_get is get_hits+get_misses by construction (every
// retrieval key lands in exactly one).
func (s *Server) generalStats(now sim.Time) []statLine {
	st := &s.stats
	var bytes, evictions, reclaimed, limit uint64
	if bs, ok := s.Store.(*BoundedStore); ok {
		bst := bs.Stats()
		bytes = bst.ItemBytes
		evictions = bst.Evictions
		reclaimed = s.ExpiredReclaimed + bst.Expired
		limit = bst.BudgetBytes
	} else {
		// The unbounded tables track no footprint; sum the live entries.
		// `stats` is an operator command, not a data-path one, so the scan
		// cost is acceptable.
		s.Store.Scan(func(k string, e *Entry) bool {
			bytes += uint64(chargeBytes(k, e))
			return true
		})
		reclaimed = s.ExpiredReclaimed
	}
	secs := uint64(now / sim.Second)
	return []statLine{
		{"pid", d(statPid)},
		{"uptime", u(secs)},
		{"time", u(secs)},
		{"version", TextVersionString},
		{"pointer_size", "64"},
		{"curr_connections", u(st.currConns)},
		{"total_connections", u(st.totalConns)},
		{"cmd_get", u(st.getHits + st.getMisses)},
		{"cmd_set", u(st.cmdSet)},
		{"cmd_flush", u(st.cmdFlush)},
		{"cmd_touch", u(st.cmdTouch)},
		{"get_hits", u(st.getHits)},
		{"get_misses", u(st.getMisses)},
		{"get_expired", u(st.getExpired)},
		{"delete_misses", u(st.deleteMisses)},
		{"delete_hits", u(st.deleteHits)},
		{"incr_misses", u(st.incrMisses)},
		{"incr_hits", u(st.incrHits)},
		{"decr_misses", u(st.decrMisses)},
		{"decr_hits", u(st.decrHits)},
		{"touch_hits", u(st.touchHits)},
		{"touch_misses", u(st.touchMisses)},
		{"curr_items", d(s.Store.Len())},
		{"total_items", u(st.totalItems)},
		{"bytes", u(bytes)},
		{"evictions", u(evictions)},
		{"reclaimed", u(reclaimed)},
		{"limit_maxbytes", u(limit)},
		{"threads", d(s.Cores)},
	}
}

// itemsStats renders `stats items`: per-class occupancy and reclaim
// history under stock's items:<class>:<field> naming.
func (s *Server) itemsStats() []statLine {
	bs, ok := s.Store.(*BoundedStore)
	if !ok {
		return nil
	}
	var out []statLine
	for _, c := range bs.ClassStats() {
		p := "items:" + d(c.Id) + ":"
		out = append(out,
			statLine{p + "number", d(c.Items)},
			statLine{p + "mem_requested", u(c.UsedBytes)},
			statLine{p + "evicted", u(c.Evicted)},
			statLine{p + "expired_unfetched", u(c.Expired)},
		)
	}
	return out
}

// slabsStats renders `stats slabs`: per-class chunk geometry plus the
// aggregate trailer stock appends after the classes.
func (s *Server) slabsStats() []statLine {
	bs, ok := s.Store.(*BoundedStore)
	if !ok {
		return nil
	}
	classes := bs.ClassStats()
	var out []statLine
	for _, c := range classes {
		p := d(c.Id) + ":"
		out = append(out,
			statLine{p + "chunk_size", d(c.ChunkSize)},
			statLine{p + "chunks_per_page", d(mem.PageSize / c.ChunkSize)},
			statLine{p + "used_chunks", d(c.Items)},
			statLine{p + "free_chunks", d(c.FreeChunks)},
		)
	}
	st := bs.Stats()
	out = append(out,
		statLine{"active_slabs", d(len(classes))},
		statLine{"total_malloced", u(st.UsedBytes)},
	)
	return out
}
