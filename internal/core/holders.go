package core

import "distlog/internal/record"

// holders tracks which servers store each log record: the merged
// interval lists gathered at initialization, overlaid by the intervals
// written (and fully acknowledged) during this epoch. This cache is
// what lets every read be served by one server chosen without a vote
// (Section 3.1.2: the voting for all reads happens once, at client
// initialization).
type holders struct {
	merged *record.MergedList
	live   []liveEntry
}

type liveEntry struct {
	iv      record.Interval
	servers []string
}

func newHolders(merged *record.MergedList) *holders {
	return &holders{merged: merged}
}

// add records that servers now hold [low, high] at the given epoch.
func (h *holders) add(epoch record.Epoch, low, high record.LSN, servers []string) {
	if n := len(h.live); n > 0 {
		last := &h.live[n-1]
		if last.iv.Epoch == epoch && last.iv.High+1 == low && equalStrings(last.servers, servers) {
			last.iv.High = high
			return
		}
	}
	cp := make([]string, len(servers))
	copy(cp, servers)
	h.live = append(h.live, liveEntry{iv: record.Interval{Epoch: epoch, Low: low, High: high}, servers: cp})
}

// epochFor returns the epoch of the winning copy of lsn, or 0 when the
// record is unknown.
func (h *holders) epochFor(lsn record.LSN) record.Epoch {
	for i := len(h.live) - 1; i >= 0; i-- {
		if h.live[i].iv.Contains(lsn) {
			return h.live[i].iv.Epoch
		}
	}
	return h.merged.EpochAt(lsn)
}

// covered reports whether any server is known to hold lsn.
func (h *holders) covered(lsn record.LSN) bool {
	return h.epochFor(lsn) != 0
}

// segment returns the maximal interval around lsn whose every LSN
// resolves to the same holder set and epoch as lsn itself, with that
// holder set — the unit a cursor fetch task can cover with one server
// choice. ok is false when no server holds lsn. Live entries are
// non-overlapping (the write path appends strictly increasing acked
// intervals), but they shadow the merged initialization view, so a
// merged segment is clipped against every live entry before being
// returned.
func (h *holders) segment(lsn record.LSN) (record.Interval, []string, bool) {
	for i := len(h.live) - 1; i >= 0; i-- {
		if h.live[i].iv.Contains(lsn) {
			return h.live[i].iv, h.live[i].servers, true
		}
	}
	iv, servers, ok := h.merged.Segment(lsn)
	if !ok {
		return record.Interval{}, nil, false
	}
	for _, le := range h.live {
		o := le.iv
		if o.High < lsn && o.High+1 > iv.Low {
			iv.Low = o.High + 1
		}
		if o.Low > lsn && o.Low-1 < iv.High {
			iv.High = o.Low - 1
		}
	}
	return iv, servers, true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
