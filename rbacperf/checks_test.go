package main

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/core"
	"adminrefine/internal/engine"
	"adminrefine/internal/tenant"
	"adminrefine/internal/wire"
)

// The verdicts by construction agree with a from-scratch refined authorizer
// on every probe family.
func TestConstructionMatchesReference(t *testing.T) {
	f := fixture{name: "t000", roles: 16, users: 8}
	p := f.policy()
	ref := core.NewRefinedAuthorizer(p)
	rng := rand.New(rand.NewSource(1))
	denied := 0
	for i := 0; i < 400; i++ {
		c := probe(rng, f, denyShare)
		_, ok := ref.Authorize(p, c)
		if ok != expectAllowed(c) {
			t.Fatalf("%s: reference %v, construction %v", c, ok, expectAllowed(c))
		}
		if !ok {
			denied++
		}
	}
	if denied < 80 || denied > 190 {
		t.Fatalf("%d of 400 probes denied, want about a third", denied)
	}
}

func TestVerdictCheckCatchesFlip(t *testing.T) {
	f := fixture{name: "t000", roles: 8, users: 8}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		c := probe(rng, f, denyShare)
		if err := checkVerdict(c, expectAllowed(c)); err != nil {
			t.Fatal(err)
		}
		if checkVerdict(c, !expectAllowed(c)) == nil {
			t.Fatalf("flipped verdict on %s passed", c)
		}
	}
	for _, c := range []wire.Check{{Action: "read", Object: "obj"}, {Action: "write", Object: "obj"}} {
		if checkCheck(c, !expectCheck(c)) == nil {
			t.Fatalf("flipped check %v passed", c)
		}
	}
}

func TestTokenCheckCatchesGenerationBelowToken(t *testing.T) {
	if err := checkToken(5, 5); err != nil {
		t.Fatal(err)
	}
	if checkToken(5, 4) == nil {
		t.Fatal("generation below its token passed")
	}
}

func TestOutcomeCheck(t *testing.T) {
	f := fixture{name: "t000", roles: 2, users: 2}
	if err := checkOutcome(f, 3, wire.OutcomeApplied); err != nil {
		t.Fatal(err)
	}
	if checkOutcome(f, 3, wire.OutcomeNoChange) == nil || checkOutcome(f, 4, wire.OutcomeApplied) == nil {
		t.Fatal("wrong submit outcome passed")
	}
}

// history submits n fresh grants to one tenant of a real registry and
// records the acknowledgements in a new oracle, skipping the one at drop
// (-1 keeps all).
func history(t *testing.T, n, drop int) (*oracle, *tenant.Registry, string) {
	t.Helper()
	fx := newFixtureSet([]fixture{{name: "t000", roles: 8, users: 8}})
	dir := t.TempDir()
	reg := tenant.New(tenant.Options{Dir: dir, Mode: engine.Refined, Bootstrap: fx.bootstrap})
	orc := newOracle(fx)
	f := fx.tenants[0]
	for k := 0; k < n; k++ {
		c := f.grant(int64(k))
		res, gen, err := reg.SubmitBatch(f.name, []command.Command{c})
		if err != nil || res[0].Outcome != command.Applied {
			t.Fatalf("submit %s: %v %v", c, res, err)
		}
		if k != drop {
			orc.ack(0, c, gen)
		}
		snap, release, err := reg.View(f.name)
		if err != nil {
			t.Fatal(err)
		}
		probe := f.grant(int64(k + 100))
		_, allowed := snap.Authorize(probe)
		orc.sample(0, snap.Generation(), probe, allowed)
		release()
	}
	return orc, reg, dir
}

func TestChecksPassOnTrueHistory(t *testing.T) {
	orc, reg, dir := history(t, 5, -1)
	if err := orc.checkGenerations(reg); err != nil {
		t.Fatal(err)
	}
	if err := orc.checkReference(); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if err := orc.checkReopen(dir); err != nil {
		t.Fatal(err)
	}
}

func TestChecksCatchDroppedAck(t *testing.T) {
	orc, reg, dir := history(t, 5, 2)
	if err := orc.checkGenerations(reg); err == nil {
		t.Error("generation accounting missed a dropped acknowledgement")
	}
	if err := orc.checkReference(); err == nil {
		t.Error("reference replay missed a dropped acknowledgement")
	}
	reg.Close()
	if err := orc.checkReopen(dir); err == nil {
		t.Error("reopen check missed a dropped acknowledgement")
	}
}

func TestReferenceCatchesFlippedSample(t *testing.T) {
	orc, reg, _ := history(t, 3, -1)
	defer reg.Close()
	orc.samples[1].allowed = !orc.samples[1].allowed
	if err := orc.checkReference(); err == nil {
		t.Fatal("reference check missed a flipped verdict")
	}
}

// A whole run with one falsified answer reports correct=false and exits 1.
func TestInjectedAnswersFailTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for _, kind := range []string{"verdict", "ack", "token"} {
		var out strings.Builder
		code := run([]string{"--workload", "hot-reads", "--seconds", "1", "--inject", kind}, &out, io.Discard)
		if code != 1 || !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("inject %s: exit %d, output %q", kind, code, out.String())
		}
	}
}
