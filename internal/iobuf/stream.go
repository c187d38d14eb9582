package iobuf

// Stream gives a record parser contiguous bytes over a connection's
// deliveries: the parser consumes whole records from what Take returns
// and hands the partial one at the end to Keep. With nothing left over,
// the usual case, a single-element delivery is parsed where the driver
// put it and nothing is copied.
type Stream struct{ tail []byte }

// Take returns the bytes to parse for this delivery: the payload's own
// view when no partial record is pending and the payload is one element,
// otherwise the pending bytes with the payload appended. The slice is
// valid until the next Take, and no longer than the payload itself: a
// receive handler parses it, and calls Keep, before it returns.
func (s *Stream) Take(payload *IOBuf) []byte {
	if len(s.tail) == 0 && !payload.IsChained() {
		return payload.Data()
	}
	s.tail = payload.AppendTo(s.tail)
	return s.tail
}

// Keep retains data[consumed:], where data is what Take just returned.
// need, when the parser knows it, is the size the partial record will
// reach (capped by the caller: the peer announced it); the buffer is
// sized for it once instead of by doubling.
func (s *Stream) Keep(data []byte, consumed, need int) {
	rest := data[consumed:]
	switch {
	case need > cap(s.tail):
		s.tail = append(make([]byte, 0, need), rest...)
	case len(s.tail) == 0: // data was the payload's own bytes
		s.tail = append(s.tail, rest...)
	case consumed > 0: // data is s.tail: move the remainder down
		s.tail = s.tail[:copy(s.tail, rest)]
	}
}

// Len reports the bytes pending.
func (s *Stream) Len() int { return len(s.tail) }
