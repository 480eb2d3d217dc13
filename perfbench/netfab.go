package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/ssb"
)

// sourceMarkSize is the size of a journaled source-progress record: thread
// u32 | consumed u64 | updates u64 | epoch u64 | watermark i64 | inc u8 |
// done u8, little-endian. The watermark says how far in event time the
// thread's flush reaches.
const sourceMarkSize = 38

// mark is one timestamped journal record of interest. Trigger marks also
// carry the process CPU time and heap bytes allocated when they were
// appended, so the run can be cut at its last result.
type mark struct {
	at    int64 // clock()
	id    int   // trigger: leader node; source: thread
	val   int64 // trigger: window; source: watermark
	cpu   time.Duration
	alloc uint64
}

// journalStore wraps a member's recovery.Store. It stamps every window
// trigger and every source-progress mark — the only points of a cluster run
// observable from outside the workers — and, in a traced run, also times
// each append.
type journalStore struct {
	inner recovery.Store
	timed bool

	mu       sync.Mutex
	triggers []mark
	sources  []mark
	journalStats
}

// journalStats totals the appends of one or more members.
type journalStats struct {
	appends, bytes, appendNs int64
}

func (j *journalStats) add(o journalStats) {
	j.appends += o.appends
	j.bytes += o.bytes
	j.appendNs += o.appendNs
}

// Append implements recovery.Store.
func (s *journalStore) Append(node int, rec *recovery.Record) error {
	t := clock()
	err := s.inner.Append(node, rec)
	end := t
	if s.timed {
		end = clock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appends++
	s.bytes += int64(len(rec.Payload) + 8*len(rec.Clock))
	s.appendNs += end - t
	switch rec.Kind {
	case recovery.KindTrigger:
		if win, err := ssb.DecodeTriggerPayload(rec.Payload); err == nil {
			s.triggers = append(s.triggers, mark{at: t, id: node, val: int64(win), cpu: cpuTime(), alloc: heapAllocs()})
		}
	case recovery.KindSource:
		if p := rec.Payload; len(p) == sourceMarkSize {
			s.sources = append(s.sources, mark{at: t, id: int(binary.LittleEndian.Uint32(p[0:])),
				val: int64(binary.LittleEndian.Uint64(p[28:]))})
		}
	}
	return err
}

// Load implements recovery.Store.
func (s *journalStore) Load(node int) ([]recovery.Record, error) { return s.inner.Load(node) }

// runCluster runs the input's workload once as a coordinator plus one worker
// per node, all in this process over netfab TCP loopback, and checks the
// merged rows against the reference. The run is timed from the coordinator's
// start order to the last window trigger, the last result any engine emits;
// shipping every member's rows back to the coordinator afterwards is the
// benchmark's check, reported as cluster.finish_s.
func runCluster(in *input, want string, traced bool) pass {
	var p pass
	spec := cluster.Spec{Workload: "ysb", Nodes: numNodes, Threads: threads,
		Records: in.spec.records, Seed: in.seed}
	runtime.GC()
	base := heapBytes()
	peak := sampleHeap()

	// The coordinator's progress lines mark bring-up done and the merged
	// result; CPU and allocation are read when the run starts.
	var wired, done atomic.Int64
	var cpu0 time.Duration
	var alloc0 uint64
	logf := func(format string, _ ...any) {
		switch {
		case strings.Contains(format, "members wired, starting"):
			alloc0, cpu0 = heapAllocs(), cpuTime()
			wired.Store(clock())
		case strings.HasPrefix(format, "coordinator: run complete"):
			done.Store(clock())
		}
	}
	t0 := clock()
	co, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Spec: spec, Logf: logf})
	if err != nil {
		peak()
		p.err = err
		return p
	}
	defer co.Close()
	stores := make([]*journalStore, numNodes)
	var wg sync.WaitGroup
	for r := range stores {
		stores[r] = &journalStore{inner: recovery.NewMemStore(), timed: traced}
		w := cluster.NewWorker(cluster.WorkerOptions{Coordinator: co.Addr(), Rank: r, Store: stores[r]})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run() // the coordinator's result reports member failures
		}()
	}
	type result struct {
		res *cluster.Result
		err error
	}
	ch := make(chan result, 1)
	go func() {
		res, err := co.Run()
		ch <- result{res, err}
	}()
	var res *cluster.Result
	select {
	case r := <-ch:
		res, err = r.res, r.err
	case <-time.After(passTimeout):
		err = errHung
	}
	if err != nil {
		co.Close()
	}
	if !waitGroup(&wg, passTimeout) && err == nil {
		err = fmt.Errorf("a worker did not exit after the run")
	}
	p.heapPeak = sat(peak(), base)
	if err != nil {
		p.err = fmt.Errorf("cluster run: %w", err)
		return p
	}
	if wired.Load() == 0 {
		p.err = fmt.Errorf("coordinator never logged the start of the run")
		return p
	}
	p.setup = time.Duration(wired.Load() - t0)
	for _, r := range res.Reports {
		p.records += r.Records
	}
	p.rows = int64(len(res.Rows))
	if p.records != in.total() {
		p.err = fmt.Errorf("cluster ingested %d records, input has %d", p.records, in.total())
		return p
	}
	if cluster.RenderRows(res.Rows) != want {
		p.err = fmt.Errorf("cluster rows differ from the reference (%d rows, reference has %d)", len(res.Rows), in.ref.rows)
		return p
	}

	var js journalStats
	var triggers []mark
	sources := make([][]mark, numNodes*threads)
	for _, s := range stores {
		js.add(s.journalStats)
		triggers = append(triggers, s.triggers...)
		for _, m := range s.sources {
			if m.id >= 0 && m.id < len(sources) {
				sources[m.id] = append(sources[m.id], m)
			}
		}
	}
	p.journal = &js
	if len(triggers) == 0 {
		p.err = fmt.Errorf("no window trigger was journaled")
		return p
	}
	last := triggers[0]
	for _, tr := range triggers {
		if tr.at > last.at {
			last = tr
		}
	}
	p.elapsed = time.Duration(last.at - wired.Load())
	p.cpu = last.cpu - cpu0
	p.alloc = last.alloc - alloc0
	p.finish = time.Duration(done.Load() - last.at)
	// One latency sample per (window, leader): the leader's trigger mark
	// minus the latest, across threads, of the first source mark whose
	// watermark reaches the window's last contributing record. The mark is
	// journaled when the flush carrying that record starts, so unlike the
	// in-process workloads the sample excludes the wait for the epoch to
	// fill.
	// As in process, windows fired by the end-of-stream flush — after the
	// last source mark — do not count.
	var inputEnd int64
	for _, marks := range sources {
		if n := len(marks); n > 0 {
			inputEnd = max(inputEnd, marks[n-1].at)
		}
	}
	for _, tr := range triggers {
		w := int(tr.val)
		if w < 0 || w >= in.ref.wins || tr.at > inputEnd {
			continue
		}
		var due int64
		ok := true
		for f, lt := range in.ref.lastTime[w] {
			if in.ref.last[w][f] < 0 {
				continue
			}
			marks := sources[f]
			i := sort.Search(len(marks), func(i int) bool { return marks[i].val >= lt })
			if i == len(marks) {
				ok = false
				break
			}
			if marks[i].at > due {
				due = marks[i].at
			}
		}
		if ok && due > 0 {
			p.lat = append(p.lat, float64(tr.at-due)/1e6)
		}
	}
	if len(p.lat) == 0 {
		p.err = fmt.Errorf("no window trigger could be matched to the source marks")
	}
	return p
}

// waitGroup waits for wg up to d and reports whether it finished.
func waitGroup(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
