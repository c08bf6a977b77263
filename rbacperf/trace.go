package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/placement"
	"adminrefine/internal/server"
	"adminrefine/internal/session"
	"adminrefine/internal/wire"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; parent is the index of the span that
// caused it (-1 for a root); op ties the spans of one operation together.
type span struct {
	name       string
	start, end int64
	parent     int
	op         int64
}

var spanNames = [numKinds]string{"op.authorize", "op.check", "op.submit"}

// tracer keeps the spans of a traced run in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add appends a span and returns its index.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// maxWrittenSpans bounds the span file of one run.
const maxWrittenSpans = 200000

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, s := range t.spans {
		if i == maxWrittenSpans {
			break
		}
		fmt.Fprintf(bw, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d}`+"\n", s.name, s.start, s.end, s.parent, s.op)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs fn as a span under parent and returns its duration.
func (t *tracer) timed(name string, parent int, op int64, fn func()) time.Duration {
	s := t.now()
	fn()
	e := t.now()
	t.add(span{name: name, start: s, end: e, parent: parent, op: op})
	return time.Duration(e - s)
}

// --- the ladder ---

// ladderOps is how many authorize ops each rung of the ladder replays.
const ladderOps = 600

// ladder replays authorize ops from the slab down three rungs — the wire
// client, the tenant registry, an engine snapshot — each rung on its own
// ops of the same distribution, so no rung warms another's decision cache.
// Differences of the rungs' medians are the self times of the upper layers.
// On the routed workload an HTTP rung through the non-owner and one straight
// to the owner come first.
func (r *runner) ladder(slab []op, m map[string]float64) error {
	tr := r.tracer
	var auth []*op
	for i := range slab {
		if slab[i].kind == opAuthorize && !slab[i].stray {
			auth = append(auth, &slab[i])
		}
	}
	rungs := 3
	if r.http {
		rungs = 5
	}
	per := len(auth) / rungs
	if per > ladderOps {
		per = ladderOps
	}
	if per == 0 {
		return fmt.Errorf("ladder: no authorize ops")
	}
	w := r.newWorker()
	reg := r.st.read.reg
	out := make([]engine.AuthzResult, 0, 256)
	rung := 0
	next := func() []*op { s := auth[rung*per : (rung+1)*per]; rung++; return s }
	perOp := func(name string, ops []*op, call func(o *op) error) ([]float64, error) {
		root := tr.add(span{name: "ladder." + name, start: tr.now(), parent: -1})
		var us []float64
		for _, o := range ops {
			id := r.opSeq.Add(1)
			var err error
			d := tr.timed(name, root, id, func() { err = call(o) })
			if err != nil {
				return nil, fmt.Errorf("ladder %s: %w", name, err)
			}
			us = append(us, float64(d)/float64(len(o.cmds)))
		}
		tr.spans[root].end = tr.now()
		return us, nil
	}
	httpCall := func(base string) func(o *op) error {
		return func(o *op) error {
			var reply batchReply[server.AuthorizeResult]
			return w.post(base, r.fx.tenants[o.tenant].name, "authorize", server.BatchRequest{Commands: encodeCmds(o.cmds)}, &reply)
		}
	}
	if r.http {
		routed, err := perOp("http.routed", next(), httpCall(r.st.stray.httpURL))
		if err != nil {
			return err
		}
		direct, err := perOp("http.direct", next(), httpCall(r.st.read.httpURL))
		if err != nil {
			return err
		}
		m["placement.forward_self_us"] = (quantileOf(routed, 0.5) - quantileOf(direct, 0.5)) * float64(len(auth[0].cmds)) / 1e3
	}
	wireNs, err := perOp("wire.Client.Do", next(), func(o *op) error {
		w.req.Reset()
		w.req.Op = wire.OpAuthorize
		w.req.Tenant = r.fx.tenants[o.tenant].name
		w.req.Cmds = append(w.req.Cmds[:0], o.cmds...)
		return r.st.readWire.Do(&w.req, &w.resp)
	})
	if err != nil {
		return err
	}
	tenantNs, err := perOp("tenant.AuthorizeBatchInto", next(), func(o *op) error {
		var err error
		out, _, err = reg.AuthorizeBatchInto(r.fx.tenants[o.tenant].name, o.cmds, out[:0])
		return err
	})
	if err != nil {
		return err
	}
	engineNs, err := perOp("engine.AuthorizeBatchInto", next(), func(o *op) error {
		snap, release, err := reg.View(r.fx.tenants[o.tenant].name)
		if err != nil {
			return err
		}
		out = snap.AuthorizeBatchInto(o.cmds, out[:0])
		release()
		return nil
	})
	if err != nil {
		return err
	}
	batch := float64(len(auth[0].cmds))
	m["wire.self_us"] = (quantileOf(wireNs, 0.5) - quantileOf(tenantNs, 0.5)) * batch / 1e3
	m["tenant.authorize_ns"] = quantileOf(tenantNs, 0.5)
	m["engine.authorize_ns"] = quantileOf(engineNs, 0.5)
	return nil
}

// --- single-layer measurements on the workload's own requests ---

// codecs times the wire and HTTP codecs and the placement lookup on the
// slab's requests.
func (r *runner) codecs(slab []op, m map[string]float64) error {
	const passes = 5
	n := len(slab)
	if n > 2000 {
		n = 2000
	}
	reqs := make([]wire.Request, n)
	bodies := make([]any, n)
	for i := 0; i < n; i++ {
		o := &slab[i]
		f := r.fx.tenants[o.tenant]
		q := &reqs[i]
		q.Tenant = f.name
		q.ID = uint64(i + 1)
		switch o.kind {
		case opAuthorize:
			q.Op = wire.OpAuthorize
			q.Cmds = o.cmds
			bodies[i] = server.BatchRequest{Commands: encodeCmds(o.cmds)}
		case opCheck:
			q.Op = wire.OpCheck
			q.Session = 1
			q.Checks = o.checks
			req := server.CheckRequest{Session: 1}
			for _, c := range o.checks {
				req.Checks = append(req.Checks, server.CheckQuery{Action: c.Action, Object: c.Object})
			}
			bodies[i] = req
		case opSubmit:
			q.Op = wire.OpSubmit
			q.Cmds = []command.Command{f.grant(int64(i))}
			bodies[i] = server.BatchRequest{Commands: encodeCmds(q.Cmds)}
		}
	}
	var buf []byte
	var total int
	start := time.Now()
	for p := 0; p < passes; p++ {
		total = 0
		for i := range reqs {
			var err error
			if buf, err = wire.AppendRequest(buf[:0], &reqs[i]); err != nil {
				return err
			}
			total += len(buf)
		}
	}
	m["wire.encode_ns"] = float64(time.Since(start)) / float64(passes*n)
	m["wire.bytes_per_req"] = float64(total) / float64(n)
	frames := make([][]byte, n)
	for i := range reqs {
		b, err := wire.AppendRequest(nil, &reqs[i])
		if err != nil {
			return err
		}
		payload, _, ok, err := wire.NextFrame(b)
		if err != nil || !ok {
			return fmt.Errorf("wire frame: ok=%v err=%v", ok, err)
		}
		frames[i] = payload
	}
	in := wire.NewInterner()
	var dec wire.Request
	start = time.Now()
	for p := 0; p < passes; p++ {
		for i := range frames {
			if err := wire.ParseRequest(frames[i], &dec, in); err != nil {
				return err
			}
		}
	}
	m["wire.decode_ns"] = float64(time.Since(start)) / float64(passes*n)

	start = time.Now()
	for p := 0; p < passes; p++ {
		for i := range bodies {
			raw, err := json.Marshal(bodies[i])
			if err != nil {
				return err
			}
			switch reqs[i].Op {
			case wire.OpCheck:
				var q server.CheckRequest
				err = json.Unmarshal(raw, &q)
			default:
				var q server.BatchRequest
				if err = json.Unmarshal(raw, &q); err == nil {
					for _, wc := range q.Commands {
						if _, err = wc.Command(); err != nil {
							break
						}
					}
				}
			}
			if err != nil {
				return err
			}
		}
	}
	m["server.json_ns"] = float64(time.Since(start)) / float64(passes*n)

	pm := r.st.pmap
	if pm == nil {
		var err error
		if pm, err = placement.New(1, []placement.Node{{ID: "n1", Addr: "a"}, {ID: "n2", Addr: "b"}}); err != nil {
			return err
		}
	}
	start = time.Now()
	for p := 0; p < passes; p++ {
		for i := range reqs {
			if _, ok := pm.Owner(reqs[i].Tenant); !ok {
				return fmt.Errorf("placement: no owner for %s", reqs[i].Tenant)
			}
		}
	}
	m["placement.owner_ns"] = float64(time.Since(start)) / float64(passes*n)
	return nil
}

// engineSubmit times Engine.SubmitBatch per command on an in-memory engine
// (no storage) over fresh grants of the write tenant's fixture.
func engineSubmit(f fixture, n int) float64 {
	e := engine.New(f.policy(), engine.Refined)
	start := time.Now()
	for k := 0; k < n; k++ {
		e.SubmitBatch([]command.Command{f.grant(int64(k))}, nil)
	}
	return float64(time.Since(start)) / float64(n) / 1e3
}

// sessionCheck times session.Table.Check per probe on a read-node snapshot.
func (r *runner) sessionCheck(t int, probes []wire.Check) (float64, error) {
	snap, release, err := r.st.read.reg.View(r.fx.tenants[t].name)
	if err != nil {
		return 0, err
	}
	defer release()
	tbl := session.NewTable(session.Options{})
	s, err := tbl.Create(snap, sessionUser, []string{sessionRole})
	if err != nil {
		return 0, err
	}
	privs := make([]model.Privilege, len(probes))
	for i, c := range probes {
		privs[i] = model.Perm(c.Action, c.Object)
	}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := tbl.Check(snap, s.ID, privs[i%len(privs)]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / n, nil
}

// tenantSubmit times serial durable Registry.SubmitBatch calls of one fresh
// grant each on the write node; the grants join the checked history.
func (r *runner) tenantSubmit(t int, n int) (float64, error) {
	f := r.fx.tenants[t]
	reg := r.st.write.reg
	o := op{kind: opSubmit, tenant: t}
	w := r.newWorker()
	var us []float64
	for i := 0; i < n; i++ {
		pos := r.tenants[t].next.Add(1) - 1
		c := f.grant(pos)
		start := time.Now()
		res, gen, err := reg.SubmitBatch(f.name, []command.Command{c})
		us = append(us, float64(time.Since(start))/1e3)
		if err != nil {
			return 0, err
		}
		if err := checkOutcome(f, pos, wire.OutcomeByte(res[0].Outcome)); err != nil {
			r.orc.fail(err)
		} else if res[0].Outcome == command.Applied {
			w.acked(&o, c, gen)
		}
	}
	return quantileOf(us, 0.5), nil
}

// --- runtime/metrics ---

type runtimeSample struct {
	gcCycles   uint64
	allocBytes uint64
	pauses     *metrics.Float64Histogram
	sched      *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	out := runtimeSample{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[2].Value.Float64Histogram()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[3].Value.Float64Histogram()
	}
	return out
}

// histDelta returns b's bucket counts minus a's.
func histDelta(a, b *metrics.Float64Histogram) []uint64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return nil
	}
	d := make([]uint64, len(b.Counts))
	for i := range d {
		d[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// bucketMid is a finite representative of bucket i.
func bucketMid(h *metrics.Float64Histogram, i int) float64 {
	lo, hi := h.Buckets[i], h.Buckets[i+1]
	switch {
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

func histQuantile(h *metrics.Float64Histogram, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return bucketMid(h, i)
		}
	}
	return bucketMid(h, len(counts)-1)
}

func histSum(h *metrics.Float64Histogram, counts []uint64) float64 {
	sum := 0.0
	for i, c := range counts {
		sum += float64(c) * bucketMid(h, i)
	}
	return sum
}

// runtimeMetrics reports the process's runtime behaviour between a and b.
func runtimeMetrics(a, b runtimeSample, ops int64, m map[string]float64) {
	m["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	if d := histDelta(a.pauses, b.pauses); d != nil {
		m["runtime.gc_pause_ms"] = histSum(b.pauses, d) * 1e3
	}
	if d := histDelta(a.sched, b.sched); d != nil {
		m["runtime.sched_p99_us"] = histQuantile(b.sched, d, 0.99) * 1e6
	}
	if ops > 0 {
		m["runtime.alloc_bytes_per_op"] = float64(b.allocBytes-a.allocBytes) / float64(ops)
	}
}

func liveHeapMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
