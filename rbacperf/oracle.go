package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/core"
	"adminrefine/internal/engine"
	"adminrefine/internal/tenant"
	"adminrefine/internal/wire"
)

// oracle checks every answer the stack gives and keeps what the checks after
// the run need: each tenant's acknowledged history and a sample of answers to
// re-decide from scratch.
type oracle struct {
	fx *fixtureSet

	mu      sync.Mutex
	acks    [][]ack // per tenant, in arrival order
	samples []sample
	faults  []string

	nfault atomic.Int64
}

// ack is one acknowledged applied command and the generation its answer
// reported (the end of its commit group).
type ack struct {
	cmd command.Command
	gen uint64
}

// sample is one authorize answer kept for the reference check.
type sample struct {
	tenant  int
	gen     uint64
	cmd     command.Command
	allowed bool
}

// maxSamples bounds the reference re-decisions per run; each one replays a
// tenant's history into a fresh policy and decider.
const maxSamples = 48

func newOracle(fx *fixtureSet) *oracle {
	return &oracle{fx: fx, acks: make([][]ack, len(fx.tenants))}
}

// fail records a failed check. Only the first few messages are kept.
func (o *oracle) fail(err error) {
	if o.nfault.Add(1) <= 8 {
		o.mu.Lock()
		o.faults = append(o.faults, err.Error())
		o.mu.Unlock()
	}
}

func (o *oracle) ok() bool { return o.nfault.Load() == 0 }

func (o *oracle) ack(tenant int, c command.Command, gen uint64) {
	o.mu.Lock()
	o.acks[tenant] = append(o.acks[tenant], ack{cmd: c, gen: gen})
	o.mu.Unlock()
}

func (o *oracle) sample(tenant int, gen uint64, c command.Command, allowed bool) {
	o.mu.Lock()
	if len(o.samples) < maxSamples {
		o.samples = append(o.samples, sample{tenant: tenant, gen: gen, cmd: c, allowed: allowed})
	}
	o.mu.Unlock()
}

// checkVerdict compares an authorize answer with the verdict by construction.
func checkVerdict(c command.Command, allowed bool) error {
	if want := expectAllowed(c); allowed != want {
		return fmt.Errorf("authorize %s: allowed=%v, Definition 5 says %v", c, allowed, want)
	}
	return nil
}

// checkCheck compares a session check answer with the fixture.
func checkCheck(c wire.Check, allowed bool) error {
	if want := expectCheck(c); allowed != want {
		return fmt.Errorf("check %s %s: allowed=%v, want %v", c.Action, c.Object, allowed, want)
	}
	return nil
}

// checkToken enforces read-your-writes: an answer to a read carrying a
// generation token reports at least that generation.
func checkToken(token, gen uint64) error {
	if gen < token {
		return fmt.Errorf("read with token %d answered at generation %d", token, gen)
	}
	return nil
}

// checkOutcome compares a submit outcome with the tenant's stream: a fresh
// assignment applies, a repeated one applies with no change.
func checkOutcome(f fixture, pos int64, got uint8) error {
	want := wire.OutcomeNoChange
	if f.fresh(pos) {
		want = wire.OutcomeApplied
	}
	if got != want {
		return fmt.Errorf("submit %s #%d on %s: outcome %s, want %s",
			f.grant(pos), pos, f.name, wire.OutcomeName(got), wire.OutcomeName(want))
	}
	return nil
}

// history returns tenant t's acknowledged commands ordered by generation.
func (o *oracle) history(t int) []ack {
	o.mu.Lock()
	h := append([]ack(nil), o.acks[t]...)
	o.mu.Unlock()
	sort.SliceStable(h, func(i, j int) bool { return h[i].gen < h[j].gen })
	return h
}

// applied reports how many commands tenant t had acknowledged as applied.
func (o *oracle) applied(t int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.acks[t])
}

// checkGenerations asserts that each tenant's final generation equals its
// bootstrap generation (0) plus its acknowledged applied commands.
func (o *oracle) checkGenerations(reg *tenant.Registry) error {
	for t, f := range o.fx.tenants {
		st, err := reg.Stats(f.name)
		if err != nil {
			return fmt.Errorf("generation check: %w", err)
		}
		if n := uint64(o.applied(t)); st.Generation != n {
			return fmt.Errorf("tenant %s ends at generation %d, but %d applied commands were acknowledged", f.name, st.Generation, n)
		}
	}
	return nil
}

// checkReference re-decides the sampled answers with a from-scratch refined
// authorizer over the tenant's acknowledged history replayed up to the
// generation each answer reported. A history that does not reach exactly
// that generation means an acknowledgement was lost or invented.
func (o *oracle) checkReference() error {
	o.mu.Lock()
	samples := append([]sample(nil), o.samples...)
	o.mu.Unlock()
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].tenant != samples[j].tenant {
			return samples[i].tenant < samples[j].tenant
		}
		return samples[i].gen < samples[j].gen
	})
	for i := 0; i < len(samples); {
		t := samples[i].tenant
		f := o.fx.tenants[t]
		h := o.history(t)
		p := f.policy()
		applied := 0
		for ; i < len(samples) && samples[i].tenant == t; i++ {
			s := samples[i]
			for applied < len(h) && h[applied].gen <= s.gen {
				if _, err := command.Apply(p, h[applied].cmd); err != nil {
					return fmt.Errorf("replay %s on %s: %w", h[applied].cmd, f.name, err)
				}
				applied++
			}
			if uint64(applied) != s.gen {
				return fmt.Errorf("tenant %s answered at generation %d, but its acknowledged history holds %d commands up to it", f.name, s.gen, applied)
			}
			_, ok := core.NewRefinedAuthorizer(p).Authorize(p, s.cmd)
			if ok != s.allowed {
				return fmt.Errorf("tenant %s at generation %d: %s answered allowed=%v, reference says %v", f.name, s.gen, s.cmd, s.allowed, ok)
			}
		}
	}
	return nil
}

// checkReopen reopens a stopped primary's data directory and asserts that it
// holds every acknowledged grant at the acknowledged generation.
func (o *oracle) checkReopen(dir string) error {
	reg := tenant.New(tenant.Options{Dir: dir, Mode: engine.Refined})
	defer reg.Close()
	for t, f := range o.fx.tenants {
		snap, release, err := reg.View(f.name)
		if err != nil {
			return fmt.Errorf("reopen %s: %w", f.name, err)
		}
		p, gen := snap.Policy(), snap.Generation()
		var missing *ack
		h := o.history(t)
		for i := range h {
			if !p.HasEdge(h[i].cmd.From, h[i].cmd.To) {
				missing = &h[i]
				break
			}
		}
		release()
		if missing != nil {
			return fmt.Errorf("reopened %s lacks acknowledged %s (generation %d)", f.name, missing.cmd, missing.gen)
		}
		if gen != uint64(len(h)) {
			return fmt.Errorf("reopened %s at generation %d, want %d", f.name, gen, len(h))
		}
	}
	return nil
}

// checkFollowerEqual waits for the follower to reach the primary's final
// generation on every tenant and compares the two policies.
func checkFollowerEqual(primary, follower *tenant.Registry, names []string) error {
	for _, name := range names {
		st, err := primary.Stats(name)
		if err != nil {
			return err
		}
		if gen, ok, err := follower.WaitGeneration(name, st.Generation, 10*time.Second); err != nil || !ok {
			return fmt.Errorf("follower stuck at generation %d of %d on %s (err %v)", gen, st.Generation, name, err)
		}
		ps, prel, err := primary.View(name)
		if err != nil {
			return err
		}
		fs, frel, err := follower.View(name)
		if err != nil {
			prel()
			return err
		}
		equal := ps.Generation() == fs.Generation() && ps.Policy().Equal(fs.Policy())
		prel()
		frel()
		if !equal {
			return fmt.Errorf("follower differs from primary on %s", name)
		}
	}
	return nil
}

// checkNoTenantState asserts that a non-owner keeps no state for tenants it
// only ever routed.
func checkNoTenantState(dir string, names []string) error {
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("non-owner holds state for %s", name)
		}
	}
	return nil
}

// ownerHasGrant reports whether the owner applied c (the routed stray-submit
// check: a non-owner that answers OK must have forwarded the write).
func ownerHasGrant(reg *tenant.Registry, name string, c command.Command) bool {
	snap, release, err := reg.View(name)
	if err != nil {
		return false
	}
	defer release()
	return snap.Policy().HasEdge(c.From, c.To)
}

// checkHistory runs the history checks against the write node, before the
// stack stops. (The reopen check runs after it stops.)
func (o *oracle) checkHistory(reg *tenant.Registry) {
	if err := o.checkGenerations(reg); err != nil {
		o.fail(err)
	}
	if err := o.checkReference(); err != nil {
		o.fail(err)
	}
}
