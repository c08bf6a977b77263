package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/wire"
)

// workloadDef is one named workload: its tenants, the stack it runs on and
// the operations it sends. Every workload measures three phases on one
// stack: an open loop over the whole mix at a fixed rate well under
// saturation, then a closed loop of reads alone, then a closed loop of
// submits alone — so neither closed loop's rate is set by the other's.
type workloadDef struct {
	name     string
	fixtures []fixture
	build    func(dir string, fx *fixtureSet) (*stack, error)
	http     bool // the slabs go over HTTP to the non-owner
	mix      mix
	rate     float64 // open-loop arrivals per second
	paceW    int     // open-loop issuers (they absorb lateness only)
	readers  int     // closed-loop reads in flight
	writers  int     // closed-loop submits in flight
	// writeOps is the closed loop of submits' fixed amount of work, sized
	// to take about its 30 % of the run here: a fixed count keeps the
	// policies, and so the live heap, the same size on every run.
	writeOps int64
	// writeTenant takes the ladder's durable submits (and, with
	// writesToOne, every submit).
	writeTenant string
	writesToOne bool
}

// strayTenant is the routed workload's tenant for wire operations sent to
// the non-owner; its presence in a workload's fixtures turns them on.
const strayTenant = "t900"

func tenantsOf(prefix string, n, roles, users int) []fixture {
	out := make([]fixture, n)
	for i := range out {
		out[i] = fixture{name: fmt.Sprintf("%s%03d", prefix, i), roles: roles, users: users}
	}
	return out
}

var workloads = []*workloadDef{
	{
		name:     "hot-reads",
		fixtures: tenantsOf("t", 16, 64, 1024),
		build:    singlePrimary,
		mix:      mix{submit: 0.05, check: 0.25, ryw: 0.25, workingSet: 1024, batch: 1},
		rate:     2000, paceW: 16, readers: 64, writers: 8, writeOps: 40000,
		writeTenant: "t000",
	},
	{
		name:     "cold-authorize",
		fixtures: append(tenantsOf("k", 4, 1024, 256), fixture{name: "w000", roles: 64, users: 2048}),
		build:    sharedPrimary,
		mix:      mix{submit: 0.04, check: 0.08 / 0.96, batch: 256, uniform: true},
		rate:     300, paceW: 8, readers: 8, writers: 4, writeOps: 40000,
		writeTenant: "w000", writesToOne: true,
	},
	{
		name:     "durable-writes",
		fixtures: tenantsOf("d", 8, 64, 1024),
		build:    primaryFollower,
		mix:      mix{submit: 0.1, check: 0.2, ryw: 1, workingSet: 1024, batch: 1},
		rate:     2000, paceW: 16, readers: 8, writers: 32, writeOps: 32000,
		writeTenant: "d000",
	},
	{
		name:     "routed",
		fixtures: append(tenantsOf("t", 16, 64, 1024), fixture{name: strayTenant, roles: 64, users: 1024}),
		build:    routedPair,
		http:     true,
		mix:      mix{submit: 0.10, check: 0.30, ryw: 0.25, workingSet: 1024, batch: 1},
		rate:     1000, paceW: 8, readers: 4, writers: 4, writeOps: 10000,
		writeTenant: "t000",
	},
}

func lookupWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mix shapes a generated slab.
type mix struct {
	submit     float64 // share of submits
	check      float64 // share of reads that are session checks
	ryw        float64 // share of reads carrying a read-your-writes token
	workingSet int     // distinct authorize probes per tenant (0 = every probe drawn afresh)
	batch      int     // commands per authorize
	uniform    bool    // tenants drawn uniformly (else Zipf(1.1))
}

// denyShare is the share of probes denied by construction.
const denyShare = 1.0 / 3

// Slab sizes: ops are reused round-robin, so a slab only needs to be
// large enough that reuse does not matter (submits draw fresh grants at
// send time whatever the slab).
const (
	slabOps      = 1 << 14
	coldSlabOps  = 1 << 10 // of 256-probe batches: 32 times the cache
	roundOps     = 64
	routedRound  = 50 // the routed rounds: 48 ops and one stray pair
	slabOpsRound = 200 * routedRound
)

// slabs builds the three phases' slabs: the whole mix, its reads alone and
// its submits alone. Every slab is whole rounds; the routed workload's
// rounds each carry one wire authorize and one wire submit to the
// non-owner, so failed operations are the same share of every phase.
func (def *workloadDef) slabs(seed int64, fx *fixtureSet) (mixed, reads, writes []op, round int) {
	rng := rand.New(rand.NewSource(seed))
	n, round := slabOps, roundOps
	if def.mix.batch > 1 {
		n = coldSlabOps
	}
	stray, hasStray := fx.byName[strayTenant]
	serving := len(fx.tenants)
	if hasStray {
		n, round, serving = slabOpsRound, routedRound, stray
	}
	if def.writesToOne {
		serving = fx.byName[def.writeTenant]
	}
	sets := workingSets(rng, fx, serving, def.mix.workingSet)
	gen := func(submit float64) []op {
		m := def.mix
		m.submit = submit
		ops := mixSlab(rng, fx, serving, sets, m, n)
		if def.writesToOne {
			for i := range ops {
				if ops[i].kind == opSubmit {
					ops[i].tenant = fx.byName[def.writeTenant]
				}
			}
		}
		if hasStray {
			for i := 0; i < len(ops); i += routedRound {
				ops[i] = op{kind: opAuthorize, tenant: stray, stray: true}
				ops[i+routedRound/2] = op{kind: opSubmit, tenant: stray, stray: true}
			}
		}
		return ops
	}
	return gen(def.mix.submit), gen(0), gen(1), round
}

// workingSets draws each serving tenant's fixed set of authorize probes.
func workingSets(rng *rand.Rand, fx *fixtureSet, serving, size int) [][]command.Command {
	if size == 0 {
		return nil
	}
	sets := make([][]command.Command, serving)
	for t := range sets {
		sets[t] = make([]command.Command, size)
		for i := range sets[t] {
			sets[t][i] = probe(rng, fx.tenants[t], denyShare)
		}
	}
	return sets
}

// mixSlab generates n ops over the first serving tenants.
func mixSlab(rng *rand.Rand, fx *fixtureSet, serving int, sets [][]command.Command, m mix, n int) []op {
	pick := func() int { return rng.Intn(serving) }
	if !m.uniform {
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(serving-1))
		pick = func() int { return int(zipf.Uint64()) }
	}
	kinds := shuffledKinds(rng, n, m.submit, (1-m.submit)*m.check)
	ops := make([]op, n)
	for i := range ops {
		t := pick()
		o := &ops[i]
		o.tenant = t
		o.kind = kinds[i]
		switch o.kind {
		case opSubmit:
			continue
		case opCheck:
			o.checks = []wire.Check{checkProbe(rng, denyShare)}
		default:
			o.cmds = make([]command.Command, m.batch)
			for j := range o.cmds {
				if sets != nil {
					o.cmds[j] = sets[t][rng.Intn(len(sets[t]))]
				} else {
					o.cmds[j] = probe(rng, fx.tenants[t], denyShare)
				}
			}
		}
		o.ryw = rng.Float64() < m.ryw
	}
	return ops
}

// shuffledKinds returns n op kinds with exactly the given shares of submits
// and checks (the rest authorizes) in seeded random order, so the mix is the
// same on every seed and only the order and the probes change.
func shuffledKinds(rng *rand.Rand, n int, submit, check float64) []opKind {
	kinds := make([]opKind, n)
	ns := int(submit*float64(n) + 0.5)
	nc := int(check*float64(n) + 0.5)
	for i := range kinds {
		switch {
		case i < ns:
			kinds[i] = opSubmit
		case i < ns+nc:
			kinds[i] = opCheck
		default:
			kinds[i] = opAuthorize
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// result is one run's answer.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	faults    []string
}

// setups is how many times an untraced run builds its stack; setup_s is
// the median.
const setups = 5

// pass is one measured run of a workload on a fresh stack.
type pass struct {
	def    *workloadDef
	seed   int64
	dur    time.Duration
	dir    string
	traced bool
	inject string
	log    io.Writer

	fx    *fixtureSet
	st    *stack
	setup time.Duration
}

// build sets the stack up n times (each timed) and keeps the last.
func (p *pass) build(ctx context.Context, n int) error {
	p.fx = newFixtureSet(p.def.fixtures)
	var times []float64
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dir := filepath.Join(p.dir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		st, err := p.def.build(dir, p.fx)
		if err != nil {
			return fmt.Errorf("set up %s: %w", p.def.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			st.close()
			os.RemoveAll(dir)
			continue
		}
		p.st = st
		p.dir = dir
	}
	sort.Float64s(times)
	p.setup = time.Duration(times[len(times)/2] * float64(time.Second))
	return nil
}

// run measures one pass and checks every answer. The stack is closed on
// return.
func (p *pass) run(ctx context.Context) (*result, *runner, error) {
	def := p.def
	orc := newOracle(p.fx)
	mixed, reads, writes, round := def.slabs(p.seed, p.fx)
	r := newRunner(p.fx, p.st, orc, round)
	r.http = def.http
	r.writeTenant = def.writeTenant
	r.inject = p.inject
	closed := false
	defer func() {
		if !closed {
			p.st.close()
		}
	}()
	if err := r.prepare(); err != nil {
		return nil, nil, err
	}
	var layers *layerProbe
	if p.traced {
		r.tracer = newTracer()
		layers = startLayers(r)
	}

	fmt.Fprintf(p.log, "rbacperf: %s seed %d measuring\n", def.name, p.seed)
	// Phase lengths: 40 % open loop, 30 % each closed loop.
	pa := p.dur * 4 / 10
	pb := p.dur * 3 / 10
	a := r.paced(ctx, mixed, 0, def.rate, pa, def.paceW)
	r.mark("phase.reads")
	b := r.saturate(ctx, reads, 0, pb, def.readers, 0)
	r.mark("phase.writes")
	// A fixed amount of writes, allowed up to three times its share of the
	// run on a slow stack.
	c := r.saturate(ctx, writes, 0, 3*(p.dur-pa-pb), def.writers, def.writeOps)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	total := newStats()
	for _, s := range []*stats{a, b, c} {
		total.merge(s)
	}
	m := map[string]float64{
		"setup_s":     p.setup.Seconds(),
		"read_ops_s":  b.rate(func(w window) int64 { return w.reads }),
		"decisions_s": b.rate(func(w window) int64 { return w.decided }),
		// Reported by the traced run only, from this untraced pass: they do
		// not repeat closely enough here to carry a bound (README.md).
		"e2e.authorize_p50_us": a.latencyUs(opAuthorize, 0.50),
		"e2e.check_p50_us":     a.latencyUs(opCheck, 0.50),
		"e2e.commits_s":        c.rate(func(w window) int64 { return w.applied }),
		"e2e.submit_p50_us":    a.latencyUs(opSubmit, 0.50),
		"e2e.authorize_p99_us": a.latencyUs(opAuthorize, 0.99),
	}
	if layers != nil {
		if err := layers.finish(mixed, a, total, m); err != nil {
			return nil, nil, err
		}
	}
	attempted, failed := total.attempted, total.failed
	// The live heap is the stack's: the benchmark's samples and slabs are
	// no longer referenced here. Two cycles: the first leaves pooled buffers
	// in the pools' victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	m["heap_live_mb"] = liveHeapMiB()

	// Checks over the whole history, then on the stopped stack.
	orc.checkHistory(p.st.write.reg)
	if p.st.read.follower != nil {
		if err := checkFollowerEqual(p.st.write.reg, p.st.read.reg, p.fx.names()); err != nil {
			orc.fail(err)
		}
	}
	p.st.close()
	closed = true
	if err := orc.checkReopen(p.st.write.dir); err != nil {
		orc.fail(err)
	}
	if p.st.stray != nil {
		var routedOnly []string
		for _, name := range p.fx.names() {
			if name != strayTenant {
				routedOnly = append(routedOnly, name)
			}
		}
		if err := checkNoTenantState(p.st.stray.dir, routedOnly); err != nil {
			orc.fail(err)
		}
	}
	return &result{
		correct:   orc.ok(),
		attempted: attempted,
		failed:    failed,
		metrics:   m,
		faults:    orc.faults,
	}, r, nil
}

func quantileUs(s samples, q float64) float64 { return s.quantile(q) / 1e3 }
