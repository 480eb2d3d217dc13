package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/core"
	slashmetrics "github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/stream"
)

// passTimeout bounds one engine run; a run still going after it is hung.
const passTimeout = 60 * time.Second

// overCapacityLag is how late a paced flow may hand over its last record
// before the run counts as over capacity rather than as latency samples: a
// backlog that grows over the run ends that far behind, a transient stall
// the engine catches up from does not.
const overCapacityLag = 50 * time.Millisecond

var errHung = errors.New("run did not finish within the pass timeout")

// pass is the outcome of one engine run over the whole input.
type pass struct {
	setup, elapsed time.Duration
	cpu            time.Duration
	alloc          uint64 // heap bytes allocated during the run
	heapPeak       uint64 // peak sampled heap above the heap before set-up
	records        int64
	rows           int64
	lat            []float64 // result latency samples, ms
	overCapacity   bool
	err            error // error, hang or mismatch with the reference

	// Paced runs: pacer lateness samples (ms), the largest backlog, and how
	// late the last record was handed over.
	late       []float64
	backlogMax int
	endLag     time.Duration

	// Traced runs only.
	fillNs  int64
	reg     *slashmetrics.Registry
	ports   *portSet
	rep     *core.Report
	journal *journalStats // ysb-netfab
	finish  time.Duration // ysb-netfab: last window trigger to merged result
}

func (p *pass) failed() bool { return p.err != nil || p.overCapacity }

// stampFlow hands a materialised flow to the engine batch by batch and stamps
// when each batch was handed over: under a closed loop that is the release
// time of its records. A traced run also times the fill itself.
type stampFlow struct {
	src    *core.ColumnarFlow
	start  int64
	pos    int
	ends   []int   // records handed over after each batch
	at     []int64 // ns since start at each hand-over
	timed  bool
	fillNs int64
}

// Next implements core.Flow.
func (f *stampFlow) Next(r *stream.Record) bool {
	ok := f.src.Next(r)
	if ok {
		f.pos++
		f.ends = append(f.ends, f.pos)
		f.at = append(f.at, clock()-f.start)
	}
	return ok
}

// Batch implements core.BatchFlow.
func (f *stampFlow) Batch(rb *stream.RecordBatch) bool {
	var t0 int64
	if f.timed {
		t0 = clock()
	}
	n0 := rb.Len()
	more := f.src.Batch(rb)
	now := clock()
	if f.timed {
		f.fillNs += now - t0
	}
	if k := rb.Len() - n0; k > 0 {
		f.pos += k
		f.ends = append(f.ends, f.pos)
		f.at = append(f.at, now-f.start)
	}
	return more
}

// releasedAt returns when record i was handed to the engine (ns since start).
func (f *stampFlow) releasedAt(i int) int64 {
	return f.at[sort.SearchInts(f.ends, i+1)]
}

// pacedFlow is the open-loop load generator: record i of the flow is due
// i/rate seconds after the start, whatever the engine does. A fill hands over
// every due record (up to the batch size) and nothing that is not yet due, so
// a slow engine builds a backlog instead of slowing the schedule.
type pacedFlow struct {
	src        *core.ColumnarFlow
	n          int
	nsPerRec   float64
	start      int64
	pos        int
	backlogMax int
	late       []int64 // per fill: ns the first handed-over record was late
	lastAt     int64   // ns since start of the latest hand-over
	endLag     int64   // ns the last record was handed over after its due time
	timed      bool
	fillNs     int64
}

func (p *pacedFlow) due(i int) int64 { return int64(float64(i) * p.nsPerRec) }

// Next implements core.Flow. The engine's batch path, the only one the
// benchmark runs, calls Batch instead; Next is not paced.
func (p *pacedFlow) Next(r *stream.Record) bool {
	ok := p.src.Next(r)
	if ok {
		p.pos++
	}
	return ok
}

// Batch implements core.BatchFlow. The engine hands over an empty batch; the
// fill limit is lowered to the due records before the columnar copy.
func (p *pacedFlow) Batch(rb *stream.RecordBatch) bool {
	if p.pos >= p.n {
		return false
	}
	t0 := clock()
	now := t0 - p.start
	dueN := int(float64(now)/p.nsPerRec) + 1
	if dueN > p.n {
		dueN = p.n
	}
	backlog := dueN - p.pos
	if backlog <= 0 {
		return true
	}
	if backlog > p.backlogMax {
		p.backlogMax = backlog
	}
	p.late = append(p.late, now-p.due(p.pos))
	if k := rb.Free(); backlog < k && rb.Len() == 0 {
		rb.Reset(backlog)
	}
	p.src.Batch(rb)
	p.pos += rb.Len()
	p.lastAt = now
	if p.pos == p.n {
		p.endLag = now - p.due(p.n-1)
	}
	if p.timed {
		p.fillNs += clock() - t0
	}
	return p.pos < p.n
}

// portSet is the traced run's channel mesh: the per-pair channels core
// builds itself, built here on a separate inline fabric and handed to the
// engine through Placement.Link with every node owned, so each port call can
// be timed from the outside.
type portSet struct {
	reg  *slashmetrics.Registry
	nics [numNodes]*rdma.NIC
	send [numNodes][numNodes]*tracedSend
	recv [numNodes][numNodes]*tracedRecv
}

func newPortSet() (*portSet, error) {
	ps := &portSet{reg: slashmetrics.NewRegistry()}
	fab := rdma.NewFabric(rdma.Config{Metrics: ps.reg})
	for n := range ps.nics {
		nic, err := fab.NewNIC(fmt.Sprintf("node%d", n))
		if err != nil {
			return nil, err
		}
		ps.nics[n] = nic
	}
	cfg := channel.Config{SlotSize: core.ChannelSlotSize(0)}
	for s := 0; s < numNodes; s++ {
		for d := 0; d < numNodes; d++ {
			if s == d {
				continue
			}
			prod, cons, err := channel.New(ps.nics[s], ps.nics[d], cfg)
			if err != nil {
				return nil, err
			}
			ps.send[s][d] = &tracedSend{SendPort: prod}
			ps.recv[s][d] = &tracedRecv{RecvPort: cons}
		}
	}
	return ps, nil
}

func (ps *portSet) link(src, dst int) (channel.SendPort, channel.RecvPort, error) {
	if src == dst || src >= numNodes || dst >= numNodes {
		return nil, nil, fmt.Errorf("no channel %d->%d", src, dst)
	}
	return ps.send[src][dst], ps.recv[src][dst], nil
}

// counter sums every channel counter whose name starts with prefix.
func (ps *portSet) counter(prefix string) uint64 {
	var sum uint64
	for _, c := range ps.reg.Snapshot().Counters {
		if len(c.Name) >= len(prefix) && c.Name[:len(prefix)] == prefix {
			sum += c.Value
		}
	}
	return sum
}

// tracedSend times the producer calls of one link. Only the link's source
// task calls it.
type tracedSend struct {
	channel.SendPort
	acquireNs, postNs, slots int64
}

// Acquire implements channel.SendPort.
func (s *tracedSend) Acquire() *channel.SendBuffer {
	t := clock()
	b := s.SendPort.Acquire()
	s.acquireNs += clock() - t
	return b
}

// Post implements channel.SendPort.
func (s *tracedSend) Post(b *channel.SendBuffer, used int) error {
	t := clock()
	err := s.SendPort.Post(b, used)
	s.postNs += clock() - t
	s.slots++
	return err
}

// tracedRecv counts the consumer polls of one link and how many found a
// slot. Only the destination's merge task calls it.
type tracedRecv struct {
	channel.RecvPort
	polls, hits int64
}

// TryPoll implements channel.RecvPort.
func (r *tracedRecv) TryPoll() (*channel.RecvBuffer, bool) {
	b, ok := r.RecvPort.TryPoll()
	r.polls++
	if ok {
		r.hits++
	}
	return b, ok
}

// runInProc runs the engine once over the whole input, in process, and
// checks its output against the reference.
func runInProc(in *input, sink *checkSink, traced bool) pass {
	var p pass
	n := in.spec.records
	flows := make([][]core.Flow, numNodes)
	stamps := make([]*stampFlow, numNodes)
	paced := make([]*pacedFlow, numNodes)
	for f := range flows {
		src := in.cols[f].Clone()
		if in.spec.paced {
			// A fill hands over at least one record, so n lateness samples
			// always fit: the pacer never allocates while the engine runs.
			paced[f] = &pacedFlow{src: src, n: n, nsPerRec: 1e9 * numNodes / pacedRate,
				late: make([]int64, 0, n), timed: traced}
			flows[f] = []core.Flow{paced[f]}
		} else {
			stamps[f] = &stampFlow{src: src, ends: make([]int, 0, n/64), at: make([]int64, 0, n/64), timed: traced}
			flows[f] = []core.Flow{stamps[f]}
		}
	}
	cfg := core.Config{Nodes: numNodes, ThreadsPerNode: threads}
	if traced {
		ps, err := newPortSet()
		if err != nil {
			p.err = err
			return p
		}
		p.ports = ps
		p.reg = slashmetrics.NewRegistry()
		cfg.Metrics = p.reg
		cfg.Placement = &core.Placement{Owned: func(int) bool { return true }, Link: ps.link}
	}
	sink.reset()
	runtime.GC()
	base := heapBytes()

	t := time.Now()
	ctrl, err := core.NewController(cfg, in.q, flows, sink)
	p.setup = time.Since(t)
	if err != nil {
		p.err = err
		return p
	}
	alloc0, cpu0 := heapAllocs(), cpuTime()
	peak := sampleHeap()

	start := clock()
	for f := range flows {
		if paced[f] != nil {
			paced[f].start = start
		} else {
			stamps[f].start = start
		}
	}
	sink.start = start
	ctrl.Start()
	rep, err := waitController(ctrl)
	end := clock()
	p.heapPeak = sat(peak(), base)
	p.cpu = cpuTime() - cpu0
	p.alloc = heapAllocs() - alloc0
	p.elapsed = time.Duration(end - start)
	p.rep = rep
	if err != nil {
		p.err = err
		return p
	}
	p.records = rep.Records
	p.rows = sink.emitted()
	if p.records != in.total() {
		p.err = fmt.Errorf("engine ingested %d records, input has %d", p.records, in.total())
		return p
	}
	if err := sink.verify(); err != nil {
		p.err = fmt.Errorf("output differs from the reference: %w", err)
		return p
	}

	release := func(f, i int) int64 {
		if paced[f] != nil {
			return paced[f].due(i)
		}
		return stamps[f].releasedAt(i)
	}
	var inputEnd int64 // the last hand-over of any flow; every flow handed over records
	for f := range flows {
		if pf := paced[f]; pf != nil {
			inputEnd = max(inputEnd, pf.lastAt)
			p.fillNs += pf.fillNs
			p.backlogMax = max(p.backlogMax, pf.backlogMax)
			p.endLag = max(p.endLag, time.Duration(pf.endLag))
			for _, l := range pf.late {
				p.late = append(p.late, float64(l)/1e6)
			}
		} else {
			sf := stamps[f]
			inputEnd = max(inputEnd, sf.at[len(sf.at)-1])
			p.fillNs += sf.fillNs
		}
	}
	if p.endLag > overCapacityLag {
		p.overCapacity = true
		return p
	}
	p.lat = latencies(in.ref, sink.first, release, inputEnd)
	return p
}

// latencies derives one sample (ms) per (window, leader): the leader's first
// row of the window minus the release of the window's last contributing
// record, latest across flows. Only windows fired while input was still
// being released count; the end-of-stream flush fires the rest, which
// measures the drain of a finite input rather than the steady state.
func latencies(ref *reference, first [][numNodes]int64, release func(f, i int) int64, inputEnd int64) []float64 {
	var out []float64
	for w := range first {
		due, any := int64(0), false
		for f, i := range ref.last[w] {
			if i < 0 {
				continue
			}
			if r := release(f, i); !any || r > due {
				due, any = r, true
			}
		}
		if !any {
			continue
		}
		for _, at := range first[w] {
			if at > 0 && at <= inputEnd {
				out = append(out, float64(at-due)/1e6)
			}
		}
	}
	return out
}

// waitController waits for the run with the pass timeout.
func waitController(ctrl *core.Controller) (*core.Report, error) {
	type result struct {
		rep *core.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := ctrl.Wait()
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(passTimeout):
		return nil, errHung
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readMetric reads one runtime metric of kind uint64.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapBytes reads the bytes held by heap objects, live or not yet swept.
func heapBytes() uint64 { return readMetric("/memory/classes/heap/objects:bytes") }

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// sampleHeap samples heapBytes every millisecond until the returned function
// is called; that call stops the sampler and returns the peak.
func sampleHeap() func() uint64 {
	stop := make(chan struct{})
	out := make(chan uint64)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			if v := heapBytes(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-out
	}
}

func sat(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
