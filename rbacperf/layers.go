package main

import (
	"sync"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/decision"
	"adminrefine/internal/wire"
)

// perLayer lists every per-layer metric a traced run reports, with its unit.
// A layer the workload does not exercise reports 0 (see README.md).
var perLayer = []struct{ name, unit string }{
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_req", "bytes"},
	{"wire.self_us", "us"},
	{"server.json_ns", "ns"},
	{"placement.owner_ns", "ns"},
	{"placement.forward_self_us", "us"},
	{"admission.admitted_per_req", "count"},
	{"tenant.authorize_ns", "ns"},
	{"tenant.submit_us", "us"},
	{"tenant.group_size", "count"},
	{"engine.authorize_ns", "ns"},
	{"engine.submit_us", "us"},
	{"decision.hit_ratio", "ratio"},
	{"decision.lookups_per_decision", "count"},
	{"decision.evictions", "count"},
	{"session.check_ns", "ns"},
	{"storage.fsyncs_per_s", "1/s"},
	{"storage.fsync_p50_us", "us"},
	{"storage.fsync_p99_us", "us"},
	{"storage.bytes_per_cmd", "bytes"},
	{"storage.writes_per_fsync", "count"},
	{"storage.compactions", "count"},
	{"replication.lag_p50_us", "us"},
	{"replication.pulls_per_write", "count"},
	{"replication.bootstraps", "count"},
	{"replication.token_waits", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.sched_p99_us", "us"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"loadgen.late_p99_us", "us"},
	{"trace.overhead_pct", "%"},
	{"e2e.authorize_p50_us", "us"},
	{"e2e.check_p50_us", "us"},
	{"e2e.commits_s", "1/s"},
	{"e2e.submit_p50_us", "us"},
	{"e2e.authorize_p99_us", "us"},
}

// layerProbe samples the layers' own counters around a traced pass.
type layerProbe struct {
	r       *runner
	start   time.Time
	adm     []admission.Stats
	cache   decision.Stats
	files   fileCounts
	pulls   uint64
	boots   uint64
	rt      runtimeSample
	lagMu   sync.Mutex
	lag     samples
	acks    chan ackEvent
	waiters sync.WaitGroup
}

type ackEvent struct {
	tenant int
	gen    uint64
	at     time.Time
}

// lagWaiters bound the goroutines that time replication lag.
const lagWaiters = 4

func startLayers(r *runner) *layerProbe {
	lp := &layerProbe{r: r}
	for _, n := range r.st.nodes {
		lp.adm = append(lp.adm, n.adm.Stats())
	}
	lp.cache = r.cacheStats()
	lp.files = r.st.write.files.counts()
	r.st.write.files.takeSyncTimes()
	lp.pulls, lp.boots = r.replicationCounts()
	if f := r.st.read; f.follower != nil {
		// Every eighth acknowledgement is followed to the follower; the
		// buffer absorbs bursts, and acks arriving when it is full are not
		// sampled.
		lp.acks = make(chan ackEvent, 1024)
		var n int64
		var mu sync.Mutex
		r.onAck = func(t int, gen uint64, at time.Time) {
			mu.Lock()
			n++
			take := n%8 == 0
			mu.Unlock()
			if take {
				select {
				case lp.acks <- ackEvent{t, gen, at}:
				default:
				}
			}
		}
		for i := 0; i < lagWaiters; i++ {
			lp.waiters.Add(1)
			go func() {
				defer lp.waiters.Done()
				for ev := range lp.acks {
					name := r.fx.tenants[ev.tenant].name
					if _, ok, _ := f.reg.WaitGeneration(name, ev.gen, 5*time.Second); ok {
						d := time.Since(ev.at)
						lp.lagMu.Lock()
						lp.lag = append(lp.lag, int64(d))
						lp.lagMu.Unlock()
					}
				}
			}()
		}
	}
	lp.rt = readRuntime()
	lp.start = time.Now()
	return lp
}

func (r *runner) cacheStats() decision.Stats {
	var sum decision.Stats
	for _, f := range r.fx.tenants {
		st, err := r.st.read.reg.Stats(f.name)
		if err != nil {
			continue
		}
		sum.Hits += st.Cache.Hits
		sum.Misses += st.Cache.Misses
		sum.Evictions += st.Cache.Evictions
	}
	return sum
}

func (r *runner) replicationCounts() (pulls, boots uint64) {
	f := r.st.read.follower
	if f == nil {
		return 0, 0
	}
	for _, name := range r.fx.names() {
		if ls, ok := f.LagStats(name); ok {
			pulls += ls.Pulls
			boots += ls.Bootstraps
		}
	}
	return pulls, boots
}

// finish computes every per-layer metric into m from the counters, the
// phases' stats, and the ladder and single-layer measurements it runs now.
func (lp *layerProbe) finish(slab []op, paced, total *stats, m map[string]float64) error {
	r := lp.r
	elapsed := time.Since(lp.start)
	rt := readRuntime()
	if lp.acks != nil {
		r.onAck = nil
		close(lp.acks)
		lp.waiters.Wait()
	}
	for _, l := range perLayer {
		m[l.name] = 0
	}

	// Admission: slots admitted per request the benchmark sent.
	var admitted uint64
	for i, n := range r.st.nodes {
		s := n.adm.Stats()
		admitted += s.Read.Admitted + s.Write.Admitted - lp.adm[i].Read.Admitted - lp.adm[i].Write.Admitted
	}
	if sent := total.attempted - total.failed; sent > 0 {
		m["admission.admitted_per_req"] = float64(admitted) / float64(sent)
	}

	// Decision cache.
	c := r.cacheStats()
	hits, misses := c.Hits-lp.cache.Hits, c.Misses-lp.cache.Misses
	if hits+misses > 0 {
		m["decision.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if total.decided > 0 {
		m["decision.lookups_per_decision"] = float64(hits+misses) / float64(total.decided)
	}
	m["decision.evictions"] = float64(c.Evictions - lp.cache.Evictions)

	// Storage, through the counting OpenFile wrapper on the write node.
	fc := r.st.write.files.counts()
	syncs := fc.syncs - lp.files.syncs
	hist := r.st.write.files.takeSyncTimes()
	m["storage.fsyncs_per_s"] = float64(syncs) / elapsed.Seconds()
	m["storage.fsync_p50_us"] = quantileUs(hist, 0.50)
	m["storage.fsync_p99_us"] = quantileUs(hist, 0.99)
	m["storage.compactions"] = float64(fc.compactions - lp.files.compactions)
	if total.applied > 0 {
		m["storage.bytes_per_cmd"] = float64(fc.bytes-lp.files.bytes) / float64(total.applied)
	}
	if syncs > 0 {
		m["storage.writes_per_fsync"] = float64(fc.writes-lp.files.writes) / float64(syncs)
		m["tenant.group_size"] = float64(total.applied) / float64(syncs)
	}

	// Replication.
	if r.st.read.follower != nil {
		pulls, boots := r.replicationCounts()
		m["replication.lag_p50_us"] = quantileUs(lp.lag, 0.50)
		if total.applied > 0 {
			m["replication.pulls_per_write"] = float64(pulls-lp.pulls) / float64(total.applied)
		}
		m["replication.bootstraps"] = float64(boots - lp.boots)
		m["replication.token_waits"] = float64(r.tokenWaits.Load())
	}

	runtimeMetrics(lp.rt, rt, total.attempted, m)
	m["loadgen.late_p99_us"] = quantileUs(paced.late, 0.99)

	// The benchmark's own spans of the measured phases.
	for _, s := range total.spans {
		s.parent = -1
		r.tracer.add(s)
	}

	// Ladder and single-layer measurements, after the measured phases.
	if err := r.ladder(slab, m); err != nil {
		return err
	}
	if err := r.codecs(slab, m); err != nil {
		return err
	}
	wt := r.fx.byName[r.writeTenant]
	m["engine.submit_us"] = engineSubmit(r.fx.tenants[wt], 2000)
	us, err := r.tenantSubmit(wt, 200)
	if err != nil {
		return err
	}
	m["tenant.submit_us"] = us
	var probes []wire.Check
	for i := range slab {
		probes = append(probes, slab[i].checks...)
	}
	if len(probes) == 0 {
		probes = []wire.Check{{Action: "read", Object: "obj"}}
	}
	ns, err := r.sessionCheck(0, probes)
	if err != nil {
		return err
	}
	m["session.check_ns"] = ns
	return nil
}
