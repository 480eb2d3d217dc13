package main

import (
	"fmt"

	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/stream"
)

// reference is the sequential reference evaluation of one workload's input:
// the expected result of every (window, key) cell, computed in one pass over
// the materialised flows without any engine code. It is dense — windows ×
// keys — because every workload here has small window and key ranges, so
// checking a run's output costs one lookup per row.
type reference struct {
	join       bool
	size       int64 // tumbling window length in event time
	wins, keys int
	// agg holds the YSB count per cell; left/right hold the NB8 per-side
	// cardinalities (left = auctions, right = persons).
	agg         []int32
	left, right []int32
	rows        int
	// last[w][f] is the index in flow f of the last record contributing to
	// window w, or -1 when the flow contributed nothing to it; lastTime[w][f]
	// is that record's event time.
	last     [][]int
	lastTime [][]int64
}

// ysbKeep is the YSB filter as the benchmark defines it: only view events
// (event type 0) reach the count.
func ysbKeep(r *stream.Record) bool { return r.V0 == 0 }

// evaluate computes the reference result of a tumbling-window query over
// flows. keep selects the records that contribute; join selects the NB8 shape
// (per-side cardinalities, side 1 marked by V1 == 1) over the YSB shape
// (count per cell).
func evaluate(flows [][]stream.Record, size int64, join bool, keep func(*stream.Record) bool) *reference {
	ref := &reference{join: join, size: size}
	for _, recs := range flows {
		for i := range recs {
			r := &recs[i]
			if keep != nil && !keep(r) {
				continue
			}
			if w := int(r.Time/size) + 1; w > ref.wins {
				ref.wins = w
			}
			if k := int(r.Key) + 1; k > ref.keys {
				ref.keys = k
			}
		}
	}
	cells := ref.wins * ref.keys
	if join {
		ref.left = make([]int32, cells)
		ref.right = make([]int32, cells)
	} else {
		ref.agg = make([]int32, cells)
	}
	ref.last = make([][]int, ref.wins)
	ref.lastTime = make([][]int64, ref.wins)
	for w := range ref.last {
		ref.last[w] = make([]int, len(flows))
		ref.lastTime[w] = make([]int64, len(flows))
		for f := range ref.last[w] {
			ref.last[w][f] = -1
		}
	}
	for f, recs := range flows {
		for i := range recs {
			r := &recs[i]
			if keep != nil && !keep(r) {
				continue
			}
			w := int(r.Time / size)
			c := w*ref.keys + int(r.Key)
			ref.last[w][f] = i
			ref.lastTime[w][f] = r.Time
			switch {
			case !join:
				ref.agg[c]++
			case r.V1 == 1:
				ref.right[c]++
			default:
				ref.left[c]++
			}
		}
	}
	for c := 0; c < cells; c++ {
		if ref.present(c) {
			ref.rows++
		}
	}
	return ref
}

func (ref *reference) present(c int) bool {
	if ref.join {
		return ref.left[c] != 0 || ref.right[c] != 0
	}
	return ref.agg[c] != 0
}

// clusterRows renders the reference in the canonical row order of
// cluster.RenderRows: aggregates before joins, each by (window, key).
func (ref *reference) clusterRows() []cluster.Row {
	rows := make([]cluster.Row, 0, ref.rows)
	for c := 0; c < ref.wins*ref.keys; c++ {
		if !ref.present(c) {
			continue
		}
		r := cluster.Row{Join: ref.join, Win: uint64(c / ref.keys), Key: uint64(c % ref.keys)}
		if ref.join {
			r.Left, r.Right = int(ref.left[c]), int(ref.right[c])
		} else {
			r.Value = int64(ref.agg[c])
		}
		rows = append(rows, r)
	}
	return rows
}

// checkSink is a core.Sink that appends every emitted row to its leader's
// list and stamps each (window, leader)'s first row; verify then checks the
// rows against the reference after the run, off the timed path. Each list is
// written only by its leader's merge task and read after the run's Wait.
type checkSink struct {
	ref   *reference
	rows  [numNodes][]row
	first [][numNodes]int64 // [window][node] ns since start of the first row; 0 = none
	start int64             // clock() at the start of the run
	seen  [numNodes][]uint64
}

// row is one emitted result: a = count or left cardinality, b = right.
type row struct {
	win, key uint64
	a, b     int64
}

func newCheckSink(ref *reference) *checkSink {
	s := &checkSink{ref: ref, first: make([][numNodes]int64, ref.wins)}
	words := (ref.wins*ref.keys + 63) / 64
	for n := range s.rows {
		s.rows[n] = make([]row, 0, ref.rows)
		s.seen[n] = make([]uint64, words)
	}
	return s
}

// reset clears the sink for another run.
func (s *checkSink) reset() {
	for n := range s.rows {
		s.rows[n] = s.rows[n][:0]
	}
	clear(s.first)
}

func (s *checkSink) add(node int, r row) {
	if w := r.win; w < uint64(len(s.first)) && s.first[w][node] == 0 {
		s.first[w][node] = clock() - s.start
	}
	s.rows[node] = append(s.rows[node], r)
}

// EmitAgg implements core.Sink.
func (s *checkSink) EmitAgg(node int, win, key uint64, value int64) {
	s.add(node, row{win: win, key: key, a: value})
}

// EmitJoin implements core.Sink.
func (s *checkSink) EmitJoin(node int, win, key uint64, left, right int) {
	s.add(node, row{win: win, key: key, a: int64(left), b: int64(right)})
}

// emitted returns the number of rows the sink received.
func (s *checkSink) emitted() int64 {
	var n int64
	for _, r := range s.rows {
		n += int64(len(r))
	}
	return n
}

// verify checks that the rows are exactly the reference: every row matches
// its reference cell, no cell arrives twice, and the row counts agree.
func (s *checkSink) verify() error {
	ref := s.ref
	for n := range s.rows {
		seen := s.seen[n]
		clear(seen)
		for _, r := range s.rows[n] {
			if r.win >= uint64(ref.wins) || r.key >= uint64(ref.keys) {
				return fmt.Errorf("row for window %d key %d is outside the reference", r.win, r.key)
			}
			c := int(r.win)*ref.keys + int(r.key)
			if seen[c/64]&(1<<(c%64)) != 0 {
				return fmt.Errorf("window %d key %d emitted twice", r.win, r.key)
			}
			seen[c/64] |= 1 << (c % 64)
			ok := false
			if ref.join {
				ok = r.a == int64(ref.left[c]) && r.b == int64(ref.right[c])
			} else {
				ok = r.a == int64(ref.agg[c]) && r.b == 0
			}
			if !ok {
				return fmt.Errorf("window %d key %d differs from the reference", r.win, r.key)
			}
		}
	}
	for w := range s.seen[0] {
		if s.seen[0][w]&s.seen[1][w] != 0 {
			return fmt.Errorf("a cell near window %d was emitted by both leaders", w*64/ref.keys)
		}
	}
	if n := s.emitted(); n != int64(ref.rows) {
		return fmt.Errorf("%d rows, reference has %d", n, ref.rows)
	}
	return nil
}
