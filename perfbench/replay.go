package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/netfab"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// replay is the single-goroutine layer replay of a workload: it drives the
// workload's pre-generated batches through the same public layer calls a
// source task and a merge task make, timing each call from outside.
//
// Both flows feed their own source backend (nodes 2 and 3) and the two
// leaders (nodes 0 and 1) share the engine's partition map over {0, 1}, so
// every chunk leaves the source backend through a sender and can be timed
// and recorded. A chunk from flow f to leader f is local in the engine's own
// layout (flow f runs on node f), which skips the codec and the channel;
// the *Remote totals count only the chunks that cross nodes there.
type replay struct {
	records                                   int64
	opsNs, assignNs, updateNs, flushNs        int64
	encodeNs, decodeNs, mergeNs, triggerNs    int64
	encodeRemoteNs, decodeRemoteNs            int64
	flushes, chunks, dataChunks, remoteChunks int64
	payloadBytes, remoteBytes                 int64
	stateBytesPeak                            int64
	rows                                      int64

	// streams[s][d] is the encoded chunk stream of the engine link s->d, as
	// the first iteration recorded it.
	streams [numNodes][numNodes][][]byte
	record  bool

	// buf holds the encoded chunks of the flush being delivered; it is
	// reused across flushes so encoding never touches fresh memory.
	buf           []byte
	pending       [numNodes][]pendingChunk
	flushEncodeNs int64
}

// pendingChunk is an encoded chunk in buf awaiting its leader.
type pendingChunk struct {
	src, off, end int
}

// recSender encodes a flushed chunk, as the engine's channel sender does,
// and queues it for its leader.
type recSender struct {
	r        *replay
	src, dst int
}

// Send implements ssb.Sender.
func (s *recSender) Send(c *ssb.Chunk) error {
	r := s.r
	off, n := len(r.buf), c.EncodedSize()
	if cap(r.buf) < off+n {
		r.buf = append(make([]byte, 0, 2*(off+n)), r.buf...)
	}
	r.buf = r.buf[:off+n]
	buf := r.buf[off:]
	t := clock()
	c.Encode(buf)
	d := clock() - t
	r.encodeNs += d
	r.flushEncodeNs += d
	r.chunks++
	if c.Kind == ssb.ChunkData {
		r.dataChunks++
		r.payloadBytes += int64(len(c.Payload))
	}
	if s.src != s.dst {
		r.remoteChunks++
		r.encodeRemoteNs += d
		r.remoteBytes += int64(len(buf))
		if r.record {
			r.streams[s.src][s.dst] = append(r.streams[s.src][s.dst], append([]byte(nil), buf...))
		}
	}
	r.pending[s.dst] = append(r.pending[s.dst], pendingChunk{src: s.src, off: off, end: off + n})
	return nil
}

// run replays the input once, accumulating into r, and checks the
// replayed output against the reference.
func (r *replay) run(in *input) error {
	q := in.q
	pmap := ssb.NewPartitionMap([]int{0, 1})
	mk := func(node int, senders []ssb.Sender) (*ssb.Backend, error) {
		return ssb.New(ssb.Config{Node: node, Nodes: numNodes, MaxNodes: 2 * numNodes, Map: pmap,
			ThreadsPerNode: threads, Agg: q.Agg, WindowEnd: q.Window.End}, senders)
	}
	var leaders [numNodes]*ssb.Backend
	for l := range leaders {
		be, err := mk(l, make([]ssb.Sender, 2*numNodes))
		if err != nil {
			return err
		}
		for f := 0; f < numNodes; f++ {
			be.ActivateNode(numNodes + f)
		}
		leaders[l] = be
	}
	var ts [numNodes]*ssb.ThreadState
	for f := range ts {
		senders := make([]ssb.Sender, 2*numNodes)
		for l := 0; l < numNodes; l++ {
			senders[l] = &recSender{r: r, src: f, dst: l}
		}
		be, err := mk(numNodes+f, senders)
		if err != nil {
			return err
		}
		be.SetPeers([]int{0, 1})
		ts[f] = be.Thread(0)
	}

	sink := newCheckSink(in.ref)
	sink.start = clock()
	deliver := func() error {
		for l, be := range leaders {
			for _, pc := range r.pending[l] {
				t := clock()
				c, err := ssb.DecodeChunk(r.buf[pc.off:pc.end])
				d := clock() - t
				r.decodeNs += d
				if pc.src != l {
					r.decodeRemoteNs += d
				}
				if err != nil {
					return err
				}
				t = clock()
				err = be.HandleChunk(&c)
				r.mergeNs += clock() - t
				if err != nil {
					return err
				}
			}
			r.pending[l] = r.pending[l][:0]
			t := clock()
			be.TriggerReady(func(win, key uint64, v int64) { sink.EmitAgg(l, win, key, v) },
				func(win, key uint64, elems []crdt.BagElem) {
					left := 0
					for i := range elems {
						if elems[i].Side == 0 {
							left++
						}
					}
					sink.EmitJoin(l, win, key, left, len(elems)-left)
				})
			r.triggerNs += clock() - t
		}
		r.buf = r.buf[:0]
		return nil
	}
	flush := func(f int, finish bool) error {
		if sb := int64(ts[f].StateBytes()); sb > r.stateBytesPeak {
			r.stateBytesPeak = sb
		}
		r.flushEncodeNs = 0
		t := clock()
		var err error
		if finish {
			err = ts[f].FinishStream()
		} else {
			err = ts[f].Flush()
		}
		r.flushNs += clock() - t - r.flushEncodeNs
		r.flushes++
		if err != nil {
			return err
		}
		return deliver()
	}

	const batch = 256
	rb := stream.NewRecordBatch(batch)
	assign := window.ForRuns(q.Window)
	var runs window.Runs
	selTimes := make([]int64, 0, batch)
	sides := make([]uint8, batch)
	recSize := q.Codec.Size()
	var flows [numNodes]*core.ColumnarFlow
	for f := range flows {
		flows[f] = in.cols[f].Clone()
	}
	var done [numNodes]bool
	for left := numNodes; left > 0; {
		for f := range flows {
			if done[f] {
				continue
			}
			rb.Reset(batch)
			more := flows[f].Batch(rb)
			n := rb.Len()
			if n > 0 {
				r.records += int64(n)
				if err := r.process(q, ts[f], rb, assign, &runs, &selTimes, sides); err != nil {
					return err
				}
				ts[f].ObserveTime(rb.Times[n-1])
			}
			var err error
			switch {
			case !more:
				done[f] = true
				left--
				err = flush(f, true)
			case ts[f].Ingest(n * recSize):
				err = flush(f, false)
			}
			if err != nil {
				return err
			}
		}
	}
	r.rows += sink.emitted()
	if err := sink.verify(); err != nil {
		return fmt.Errorf("replayed output differs from the reference: %w", err)
	}
	return nil
}

// process runs the source task's operator pipeline over one batch: the
// query's batch operators, run-length window assignment, and the SSB update.
func (r *replay) process(q *core.Query, ts *ssb.ThreadState, rb *stream.RecordBatch,
	assign window.RunAssigner, runs *window.Runs, selTimes *[]int64, sides []uint8) error {
	t := clock()
	if q.FilterBatch != nil {
		q.FilterBatch(rb)
		if rb.Live() == 0 {
			r.opsNs += clock() - t
			return nil
		}
	}
	if q.MapBatch != nil {
		q.MapBatch(rb)
	}
	times := rb.Times[:rb.Len()]
	if rb.Sel != nil {
		g := (*selTimes)[:0]
		for _, i := range rb.Sel {
			g = append(g, rb.Times[i])
		}
		*selTimes = g
		times = g
	}
	var sd []uint8
	if q.JoinSideBatch != nil {
		sd = sides[:rb.Len()]
		q.JoinSideBatch(rb, sd)
	}
	t1 := clock()
	r.opsNs += t1 - t
	runs.Reset()
	assign.AssignRuns(times, runs)
	t2 := clock()
	r.assignNs += t2 - t1
	for i := 0; i < runs.N(); i++ {
		p0, p1 := runs.Span(i)
		for _, win := range runs.Windows(i) {
			var err error
			if sd != nil {
				err = ts.AppendBagBatch(win, rb, p0, p1, sd)
			} else {
				err = ts.UpdateAggBatch(win, rb, p0, p1)
			}
			if err != nil {
				return err
			}
		}
	}
	r.updateNs += clock() - t2
	return nil
}

// remoteStream concatenates the recorded streams of every engine link.
func (r *replay) remoteStream() [][]byte {
	var out [][]byte
	for s := range r.streams {
		for d := range r.streams[s] {
			out = append(out, r.streams[s][d]...)
		}
	}
	return out
}

// pump sends every chunk of stream through one channel, one at a time, and
// returns the total ns from acquiring a slot to releasing it on the far
// side. Each delivered chunk is compared with what was sent.
func pump(prod channel.SendPort, cons channel.RecvPort, chunks [][]byte) (int64, error) {
	var total int64
	for _, buf := range chunks {
		t := clock()
		b := prod.Acquire()
		if b == nil {
			return 0, fmt.Errorf("acquire: %v", prod.Err())
		}
		copy(b.Data, buf)
		if err := prod.Post(b, len(buf)); err != nil {
			return 0, err
		}
		var rb *channel.RecvBuffer
		for {
			var ok bool
			if rb, ok = cons.TryPoll(); ok {
				break
			}
			if err := cons.Err(); err != nil {
				return 0, err
			}
			runtime.Gosched()
		}
		total += clock() - t
		if len(rb.Data) < len(buf) || !bytes.Equal(rb.Data[:len(buf)], buf) {
			return 0, fmt.Errorf("channel delivered a different chunk")
		}
		t = clock()
		err := cons.Release(rb)
		total += clock() - t
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// transferInline sends the chunks through a channel on the default inline
// rdma fabric, as the in-process engine's mesh does.
func transferInline(chunks [][]byte) (int64, error) {
	fab := rdma.NewFabric(rdma.Config{})
	a, err := fab.NewNIC("replay-src")
	if err != nil {
		return 0, err
	}
	b, err := fab.NewNIC("replay-dst")
	if err != nil {
		return 0, err
	}
	prod, cons, err := channel.New(a, b, channel.Config{SlotSize: core.ChannelSlotSize(0)})
	if err != nil {
		return 0, err
	}
	defer prod.Close()
	defer cons.Close()
	return pump(prod, cons, chunks)
}

// transferNetfab sends the chunks through a netfab-backed channel over TCP
// loopback, wired the way a cluster member wires one link. It also returns
// the heap allocations made while transferring.
func transferNetfab(chunks [][]byte) (ns int64, mallocs uint64, err error) {
	host, err := netfab.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer host.Close()
	cfg := channel.Config{Credits: channel.DefaultCredits, SlotSize: core.ChannelSlotSize(0),
		CreditWaitTimeout: cluster.DefaultCreditWait}
	ring, err := host.Register(cfg.Credits * cfg.SlotSize)
	if err != nil {
		return 0, 0, err
	}
	cred, err := host.Register(8)
	if err != nil {
		return 0, 0, err
	}
	qpProd, err := netfab.Dial(host.Addr(), "replay->leader")
	if err != nil {
		return 0, 0, err
	}
	defer qpProd.Close()
	prod, err := channel.NewProducer(cfg, qpProd, qpProd.CQ(),
		netfab.NewLocalBuffer(cfg.Credits*cfg.SlotSize), cred, ring.RKey())
	if err != nil {
		return 0, 0, err
	}
	defer prod.Close()
	qpCons, err := netfab.Dial(host.Addr(), "replay<-leader")
	if err != nil {
		return 0, 0, err
	}
	defer qpCons.Close()
	cons, err := channel.NewConsumer(cfg, qpCons, qpCons.CQ(), ring, cred.RKey())
	if err != nil {
		return 0, 0, err
	}
	defer cons.Close()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	ns, err = pump(prod, cons, chunks)
	runtime.ReadMemStats(&ms)
	return ns, ms.Mallocs - m0, err
}

// replayResult is the replay's per-layer costs, totalled over iterations.
type replayResult struct {
	replay
	iterations         int
	inlineNs, netfabNs int64
	transferred        int64 // chunks pumped through each transport
	netfabMallocs      uint64
}

// runReplays repeats the layer replay for d (at least once), then pumps the
// recorded chunk stream through both transports.
func runReplays(in *input, d time.Duration) (*replayResult, error) {
	res := &replayResult{}
	res.record = true
	deadline := time.Now().Add(d / 2)
	for res.iterations == 0 || time.Now().Before(deadline) {
		if err := res.run(in); err != nil {
			return nil, err
		}
		res.record = false
		res.iterations++
	}
	chunks := res.remoteStream()
	if len(chunks) == 0 {
		return nil, fmt.Errorf("replay shipped no chunk across nodes")
	}
	deadline = time.Now().Add(d / 2)
	for rounds := 0; rounds == 0 || time.Now().Before(deadline); rounds++ {
		ns, err := transferInline(chunks)
		if err != nil {
			return nil, fmt.Errorf("inline channel: %w", err)
		}
		nf, m, err := transferNetfab(chunks)
		if err != nil {
			return nil, fmt.Errorf("netfab channel: %w", err)
		}
		res.inlineNs += ns
		res.netfabNs += nf
		res.netfabMallocs += m
		res.transferred += int64(len(chunks))
	}
	return res, nil
}
