package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/server"
	"adminrefine/internal/wire"
)

type opKind uint8

const (
	opAuthorize opKind = iota
	opCheck
	opSubmit
	numKinds
)

var kindNames = [numKinds]string{"authorize", "check", "submit"}

// op is one generated operation. Submits carry no command: each takes the
// next position of its tenant's write stream when it is sent, so reusing the
// slab never repeats a grant.
type op struct {
	kind   opKind
	tenant int
	cmds   []command.Command
	checks []wire.Check
	ryw    bool
	// stray sends the op over the wire plane to a node that does not own
	// the tenant (the routed workload's named fault).
	stray bool
}

// tenantState is the client-side view of one tenant.
type tenantState struct {
	next    atomic.Int64  // write stream position
	lastAck atomic.Uint64 // highest acknowledged generation: the RYW token
	session uint64        // check session on the read node, set before load
}

// runner drives one stack with the workload's operations and checks every
// answer against the oracle.
type runner struct {
	fx      *fixtureSet
	st      *stack
	orc     *oracle
	http    bool // serve the slab over the HTTP plane (else wire)
	tenants []tenantState
	round   int // ops per round: runs attempt whole rounds
	tracer  *tracer
	opSeq   atomic.Int64

	// tokenWaits counts token reads sent while the read node was still
	// behind the token (traced runs only).
	tokenWaits atomic.Int64
	strayReads atomic.Int64
	// onAck, when set, observes every acknowledged applied submit.
	onAck func(tenant int, gen uint64, at time.Time)

	writeTenant string
	// inject names one answer to falsify as it arrives (verdict, ack or
	// token); injected makes it happen once.
	inject   string
	injected atomic.Bool
}

func validInjection(kind string) bool {
	return kind == "" || kind == "verdict" || kind == "ack" || kind == "token"
}

// falsify reports whether this answer is the one to falsify.
func (r *runner) falsify(kind string) bool {
	return r.inject == kind && r.injected.CompareAndSwap(false, true)
}

// mark records a phase boundary in the span file of a traced run.
func (r *runner) mark(name string) {
	if r.tracer != nil {
		now := r.tracer.now()
		r.tracer.add(span{name: name, start: now, end: now, parent: -1})
	}
}

func newRunner(fx *fixtureSet, st *stack, orc *oracle, round int) *runner {
	return &runner{fx: fx, st: st, orc: orc, tenants: make([]tenantState, len(fx.tenants)), round: round}
}

// stats is what one worker (and, merged, one phase) measured.
type stats struct {
	lat       [numKinds]samples // latency, ns
	at        [numKinds]samples // when each latency's clock started, ns into the phase
	count     [numKinds]int64
	decided   int64 // authorize commands answered
	applied   int64 // acknowledged applied commands
	attempted int64
	failed    int64
	late      samples // open-loop lateness, ns
	elapsed   time.Duration
	spans     []span
	start     time.Time
	win       []window // completions per window of the phase
}

// window counts what completed in one windowLen of a phase.
type window struct{ reads, decided, applied int64 }

// windowLen is the width of the windows rates are taken over.
const windowLen = 500 * time.Millisecond

func newStats() *stats { return &stats{start: time.Now()} }

// cur returns the window the present instant falls in.
func (s *stats) cur() *window {
	i := int(time.Since(s.start) / windowLen)
	for len(s.win) <= i {
		s.win = append(s.win, window{})
	}
	return &s.win[i]
}

func (s *stats) merge(o *stats) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
		s.at[k] = append(s.at[k], o.at[k]...)
		s.count[k] += o.count[k]
	}
	for i, w := range o.win {
		for len(s.win) <= i {
			s.win = append(s.win, window{})
		}
		s.win[i].reads += w.reads
		s.win[i].decided += w.decided
		s.win[i].applied += w.applied
	}
	s.decided += o.decided
	s.applied += o.applied
	s.attempted += o.attempted
	s.failed += o.failed
	s.late = append(s.late, o.late...)
	s.spans = append(s.spans, o.spans...)
}

// worker holds one issuer's reusable request state.
type worker struct {
	r    *runner
	st   *stats
	req  wire.Request
	resp wire.Response
	buf  bytes.Buffer
	// from is when the current op's latency starts: its release in an open
	// loop, its send time in a closed one.
	from time.Time
	// keepLat records each op's latency; rates alone need no samples.
	keepLat bool
}

func (r *runner) newWorker() *worker { return &worker{r: r, st: newStats()} }

// prepare opens one check session per tenant on the read node.
func (r *runner) prepare() error {
	w := r.newWorker()
	for t := range r.tenants {
		if r.fx.tenants[t].name == strayTenant {
			continue
		}
		id, err := w.createSession(t)
		if err != nil {
			return fmt.Errorf("create session on %s: %w", r.fx.tenants[t].name, err)
		}
		r.tenants[t].session = id
	}
	return nil
}

func (w *worker) createSession(t int) (uint64, error) {
	name := w.r.fx.tenants[t].name
	if w.r.http {
		var reply struct {
			Results server.SessionResponse `json:"results"`
		}
		err := w.post(w.r.st.stray.httpURL, name, "sessions", server.SessionRequest{User: sessionUser, Activate: []string{sessionRole}}, &reply)
		return reply.Results.Session, err
	}
	w.req.Reset()
	w.req.Op = wire.OpSessionCreate
	w.req.Tenant = name
	w.req.User = sessionUser
	w.req.Roles = append(w.req.Roles[:0], sessionRole)
	if err := w.r.st.readWire.Do(&w.req, &w.resp); err != nil {
		return 0, err
	}
	return w.resp.Session, nil
}

// do runs one op and checks its answer. Only a stray op can fail (and is
// counted so); a wrong answer is a failed check on the oracle.
func (w *worker) do(o *op) {
	r := w.r
	w.st.attempted++
	id := r.opSeq.Add(1)
	var t0 int64
	if r.tracer != nil {
		t0 = r.tracer.now()
	}
	failed := false
	switch {
	case o.stray:
		failed = !w.stray(o)
	case r.http:
		w.httpOp(o, id)
	default:
		w.wireOp(o, id)
	}
	if failed {
		w.st.failed++
	}
	if r.tracer != nil {
		w.st.spans = append(w.st.spans, span{name: spanNames[o.kind], start: t0, end: r.tracer.now(), op: id})
	}
}

func (w *worker) token(o *op) uint64 {
	if !o.ryw {
		return 0
	}
	tok := w.r.tenants[o.tenant].lastAck.Load()
	if w.r.tracer != nil && w.r.st.read.follower != nil && tok > 0 {
		if _, ok, _ := w.r.st.read.reg.WaitGeneration(w.r.fx.tenants[o.tenant].name, tok, 0); !ok {
			w.r.tokenWaits.Add(1)
		}
	}
	return tok
}

func (w *worker) acked(o *op, c command.Command, gen uint64) {
	r := w.r
	ts := &r.tenants[o.tenant]
	for {
		cur := ts.lastAck.Load()
		if gen <= cur || ts.lastAck.CompareAndSwap(cur, gen) {
			break
		}
	}
	if !r.falsify("ack") {
		r.orc.ack(o.tenant, c, gen)
	}
	w.st.applied++
	w.st.cur().applied++
	if r.onAck != nil {
		r.onAck(o.tenant, gen, time.Now())
	}
}

func (w *worker) wireOp(o *op, id int64) {
	r := w.r
	f := r.fx.tenants[o.tenant]
	req, resp := &w.req, &w.resp
	req.Reset()
	req.Tenant = f.name
	client := r.st.readWire
	var pos int64
	switch o.kind {
	case opAuthorize:
		req.Op = wire.OpAuthorize
		req.MinGen = w.token(o)
		req.Cmds = append(req.Cmds[:0], o.cmds...)
	case opCheck:
		req.Op = wire.OpCheck
		req.MinGen = w.token(o)
		req.Session = r.tenants[o.tenant].session
		req.Checks = append(req.Checks[:0], o.checks...)
	case opSubmit:
		req.Op = wire.OpSubmit
		pos = r.tenants[o.tenant].next.Add(1) - 1
		req.Cmds = append(req.Cmds[:0], f.grant(pos))
		client = r.st.writeWire
	}
	err := client.Do(req, resp)
	w.record(o)
	if err != nil {
		r.orc.fail(fmt.Errorf("%s on %s: %w", kindNames[o.kind], f.name, err))
		return
	}
	switch o.kind {
	case opAuthorize:
		w.checkAuthz(o, id, req.MinGen, resp.Generation, len(resp.Authz), func(i int) bool { return resp.Authz[i].Allowed })
	case opCheck:
		w.checkChecks(o, req.MinGen, resp.Generation, resp.Allowed)
	case opSubmit:
		if len(resp.Steps) != 1 {
			r.orc.fail(fmt.Errorf("submit on %s: %d results for 1 command", f.name, len(resp.Steps)))
			return
		}
		w.checkSubmit(o, f, pos, resp.Steps[0].Outcome, resp.Generation)
	}
}

func (w *worker) checkAuthz(o *op, id int64, token, gen uint64, n int, allowed func(int) bool) {
	orc := w.r.orc
	if n != len(o.cmds) {
		orc.fail(fmt.Errorf("authorize: %d results for %d commands", n, len(o.cmds)))
		return
	}
	if token > 0 && w.r.falsify("token") {
		gen = token - 1
	}
	if err := checkToken(token, gen); err != nil {
		orc.fail(err)
	}
	for i, c := range o.cmds {
		got := allowed(i)
		if w.r.falsify("verdict") {
			got = !got
		}
		if err := checkVerdict(c, got); err != nil {
			orc.fail(err)
		}
	}
	w.st.decided += int64(n)
	w.st.cur().decided += int64(n)
	if id%sampleEvery == 0 {
		orc.sample(o.tenant, gen, o.cmds[0], allowed(0))
	}
}

// sampleEvery spaces the answers kept for the reference check.
const sampleEvery = 211

func (w *worker) checkChecks(o *op, token, gen uint64, allowed []bool) {
	orc := w.r.orc
	if len(allowed) != len(o.checks) {
		orc.fail(fmt.Errorf("check: %d results for %d probes", len(allowed), len(o.checks)))
		return
	}
	if err := checkToken(token, gen); err != nil {
		orc.fail(err)
	}
	for i, c := range o.checks {
		if err := checkCheck(c, allowed[i]); err != nil {
			orc.fail(err)
		}
	}
}

func (w *worker) checkSubmit(o *op, f fixture, pos int64, outcome uint8, gen uint64) {
	if err := checkOutcome(f, pos, outcome); err != nil {
		w.r.orc.fail(err)
		return
	}
	if outcome == wire.OutcomeApplied {
		w.acked(o, f.grant(pos), gen)
	}
}

// --- HTTP plane ---

// post sends body to a tenant endpoint on the node at base and decodes a
// 200 answer into out. The HTTP load aims at the stack's non-owner.
func (w *worker) post(base, tenant, path string, body, out any) error {
	w.buf.Reset()
	if err := json.NewEncoder(&w.buf).Encode(body); err != nil {
		return err
	}
	url := base + "/v1/tenants/" + tenant + "/" + path
	resp, err := w.r.st.httpc.Post(url, "application/json", &w.buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %w", path, api.Decode(resp.StatusCode, raw))
	}
	return json.Unmarshal(raw, out)
}

type batchReply[T any] struct {
	Results    []T    `json:"results"`
	Generation uint64 `json:"generation"`
}

func encodeCmds(cmds []command.Command) []server.WireCommand {
	out := make([]server.WireCommand, len(cmds))
	for i, c := range cmds {
		wc, err := server.EncodeCommand(c)
		if err != nil {
			panic(err) // the generators only build encodable commands
		}
		out[i] = wc
	}
	return out
}

func (w *worker) httpOp(o *op, id int64) {
	r := w.r
	f := r.fx.tenants[o.tenant]
	var err error
	switch o.kind {
	case opAuthorize:
		tok := w.token(o)
		var reply batchReply[server.AuthorizeResult]
		err = w.post(r.st.stray.httpURL, f.name, "authorize", server.BatchRequest{Commands: encodeCmds(o.cmds), MinGeneration: tok}, &reply)
		if err == nil {
			w.record(o)
			w.checkAuthz(o, id, tok, reply.Generation, len(reply.Results), func(i int) bool { return reply.Results[i].Allowed })
		}
	case opCheck:
		tok := w.token(o)
		req := server.CheckRequest{Session: r.tenants[o.tenant].session, MinGeneration: tok}
		for _, c := range o.checks {
			req.Checks = append(req.Checks, server.CheckQuery{Action: c.Action, Object: c.Object})
		}
		var reply batchReply[server.CheckResult]
		err = w.post(r.st.stray.httpURL, f.name, "check", req, &reply)
		if err == nil {
			w.record(o)
			allowed := make([]bool, len(reply.Results))
			for i, res := range reply.Results {
				allowed[i] = res.Allowed
			}
			w.checkChecks(o, tok, reply.Generation, allowed)
		}
	case opSubmit:
		pos := r.tenants[o.tenant].next.Add(1) - 1
		c := f.grant(pos)
		var reply batchReply[server.SubmitResult]
		err = w.post(r.st.stray.httpURL, f.name, "submit", server.BatchRequest{Commands: encodeCmds([]command.Command{c})}, &reply)
		if err == nil {
			w.record(o)
			if len(reply.Results) != 1 {
				r.orc.fail(fmt.Errorf("submit on %s: %d results for 1 command", f.name, len(reply.Results)))
				return
			}
			w.checkSubmit(o, f, pos, outcomeByName(reply.Results[0].Outcome), reply.Generation)
		}
	}
	if err != nil {
		w.record(o)
		r.orc.fail(fmt.Errorf("%s on %s: %w", kindNames[o.kind], f.name, err))
	}
}

func (w *worker) record(o *op) {
	if w.keepLat {
		w.st.lat[o.kind] = append(w.st.lat[o.kind], int64(time.Since(w.from)))
		w.st.at[o.kind] = append(w.st.at[o.kind], int64(w.from.Sub(w.st.start)))
	}
	w.st.count[o.kind]++
	if o.kind != opSubmit {
		w.st.cur().reads++
	}
}

func outcomeByName(name string) uint8 {
	for _, b := range []uint8{wire.OutcomeApplied, wire.OutcomeNoChange, wire.OutcomeDenied} {
		if wire.OutcomeName(b) == name {
			return b
		}
	}
	return wire.OutcomeIllFormed
}

// stray sends o over the wire plane to the non-owner and reports whether the
// answer was right: either misrouted naming the owner, or (for a node that
// forwards) the owner's correct answer.
func (w *worker) stray(o *op) bool {
	r := w.r
	f := r.fx.tenants[o.tenant]
	req, resp := &w.req, &w.resp
	req.Reset()
	req.Tenant = f.name
	var c command.Command
	if o.kind == opSubmit {
		req.Op = wire.OpSubmit
		c = f.grant(r.tenants[o.tenant].next.Add(1) - 1)
	} else {
		req.Op = wire.OpAuthorize
		c = f.grant(r.strayReads.Add(1) - 1)
	}
	req.Cmds = append(req.Cmds[:0], c)
	err := r.st.strayWire.Do(req, resp)
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae.Code == api.CodeMisrouted && ae.Node != ""
	}
	if err != nil {
		r.orc.fail(fmt.Errorf("stray %s on %s: %w", kindNames[o.kind], f.name, err))
		return false
	}
	if o.kind == opSubmit {
		if len(resp.Steps) != 1 || resp.Steps[0].Outcome != wire.OutcomeApplied || !ownerHasGrant(r.st.read.reg, f.name, c) {
			return false
		}
		w.acked(o, c, resp.Generation)
		return true
	}
	return len(resp.Authz) == 1 && resp.Authz[0].Allowed == expectAllowed(c)
}

// --- phases ---

// roundUp rounds n up to whole rounds.
func (r *runner) roundUp(n int64) int64 {
	k := int64(r.round)
	if n < k {
		return k
	}
	return (n + k - 1) / k * k
}

// paced runs an open-loop phase: ops are scheduled at a fixed rate for dur,
// rounded up to whole rounds, whatever the system's answers do. One pacer
// releases each op at its scheduled time or just after (Go's timers have
// about a millisecond's granularity here, so it releases whatever has come
// due each time it wakes), and the op's latency counts from its release, so
// time an op waits for a busy issuer or behind a stall is charged to the
// system. How late the pacer released each op is the generator's lateness.
func (r *runner) paced(ctx context.Context, slab []op, base int64, rate float64, dur time.Duration, workers int) *stats {
	total := r.roundUp(int64(rate * dur.Seconds()))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	type arrival struct {
		i  int64
		at time.Time
	}
	// Released ops queue here when every issuer is busy; the buffer holds a
	// second of arrivals so the pacer itself never waits on the system.
	arrivals := make(chan arrival, int(rate)+1)
	var late samples
	go func() {
		defer close(arrivals)
		for i := int64(0); i < total; {
			now := time.Now()
			for ; i < total && !start.Add(time.Duration(i)*interval).After(now); i++ {
				late = append(late, int64(now.Sub(start.Add(time.Duration(i)*interval))))
				select {
				case arrivals <- arrival{i, now}:
				case <-ctx.Done():
					return
				}
			}
			if i < total {
				time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
			}
		}
	}()
	out := r.pool(workers, true, func(w *worker) {
		for a := range arrivals {
			w.from = a.at
			w.do(&slab[(base+a.i)%int64(len(slab))])
		}
	})
	out.late = late
	out.elapsed = time.Since(start)
	return out
}

// saturate runs a closed-loop phase: depth issuers each send their next op
// as soon as the previous one is answered, until maxOps ops (when > 0) or
// dur, whichever comes first, then finish the round in progress.
func (r *runner) saturate(ctx context.Context, slab []op, base int64, dur time.Duration, depth int, maxOps int64) *stats {
	var next atomic.Int64
	var limit atomic.Int64
	limit.Store(1 << 62)
	if maxOps > 0 {
		limit.Store(r.roundUp(maxOps))
	}
	stop := time.AfterFunc(dur, func() {
		if v := r.roundUp(next.Load()); v < limit.Load() {
			limit.Store(v)
		}
	})
	defer stop.Stop()
	start := time.Now()
	out := r.pool(depth, false, func(w *worker) {
		for ctx.Err() == nil {
			i := next.Add(1) - 1
			if i >= limit.Load() {
				return
			}
			w.from = time.Now()
			w.do(&slab[(base+i)%int64(len(slab))])
		}
	})
	out.elapsed = time.Since(start)
	return out
}

// pool runs n workers to completion and merges what they measured.
func (r *runner) pool(n int, keepLat bool, body func(*worker)) *stats {
	ws := make([]*worker, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ws {
		ws[i] = r.newWorker()
		ws[i].st.start = start
		ws[i].keepLat = keepLat
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			body(w)
		}(ws[i])
	}
	wg.Wait()
	out := newStats()
	out.start = start
	for _, w := range ws {
		out.merge(w.st)
	}
	return out
}

// samples holds raw measurements; quantiles are exact, not bucketed.
type samples []int64

// quantile is the nearest-rank q-quantile (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(c[i])
}

// rate is the upper quartile over the phase's whole windows of count per
// second: the rate the stack sustains in the windows least disturbed by the
// machine's other load (on a shared two-CPU VM, some windows lose CPU to
// neighbours). A phase shorter than two whole windows reports its overall
// rate.
func (s *stats) rate(count func(window) int64) float64 {
	if len(s.win) < 3 {
		var n int64
		for _, w := range s.win {
			n += count(w)
		}
		return float64(n) / s.elapsed.Seconds()
	}
	var rates []float64
	// The last window is partial (the phase ends inside it).
	for _, w := range s.win[:len(s.win)-1] {
		rates = append(rates, float64(count(w))/windowLen.Seconds())
	}
	return quantileOf(rates, 0.75)
}

// Latency quantiles are taken per chunk of consecutive samples (by when
// their clocks started), up to maxChunks chunks, each large enough that ten
// of its samples lie beyond the quantile. The reported figure is the chunks'
// lower quartile for a median (the latency of the least disturbed stretches,
// as for rates) and the chunks' median for a tail.
const maxChunks = 20

func (s *stats) latencyUs(k opKind, q float64) float64 {
	lat, at := s.lat[k], s.at[k]
	n := len(lat)
	if n == 0 {
		return 0
	}
	minChunk := int(math.Ceil(10 / (1 - q)))
	chunks := n / minChunk
	if chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks < 2 {
		return lat.quantile(q) / 1e3
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return at[idx[i]] < at[idx[j]] })
	var vals []float64
	for c := 0; c < chunks; c++ {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		part := make(samples, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			part = append(part, lat[i])
		}
		vals = append(vals, part.quantile(q)/1e3)
	}
	if q <= 0.5 {
		return quantileOf(vals, 0.25)
	}
	return quantileOf(vals, 0.5)
}

// quantileOf is the linearly interpolated q-quantile of xs.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
