package main

import (
	"fmt"
	"math/rand"
	"strings"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
	"adminrefine/internal/wire"
	"adminrefine/internal/workload"
)

// The inputs are the churn fixtures of internal/workload: a chain of roles
// c0000 → c0001 → …, member users cu0000… assigned to role "member", user
// u0 in the chain top, and an administrator "churnadmin" whose one held
// privilege ¤(member, c0000) authorizes, under the refined regime, every
// grant of a member user (or the member role itself) to a chain role. Every
// other command below is denied by construction, and no write the benchmark
// makes (user-to-chain-role assignments) changes any probe's verdict, so the
// expected verdict of each probe is a pure function of the probe.

const adminUser = "churnadmin"

func userName(i int) string { return fmt.Sprintf("cu%04d", i) }
func roleName(i int) string { return fmt.Sprintf("c%04d", i) }

// expectAllowed is Definition 5's side condition on the churn fixtures.
func expectAllowed(c command.Command) bool {
	if c.Op != model.OpGrant || c.Actor != adminUser {
		return false
	}
	from, ok := c.From.(model.Entity)
	if !ok {
		return false
	}
	to, ok := c.To.(model.Entity)
	if !ok || to.Kind != model.KindRole || !isChainRole(to.Name) {
		return false
	}
	switch from.Kind {
	case model.KindUser:
		return strings.HasPrefix(from.Name, "cu")
	case model.KindRole:
		return from.Name == "member"
	}
	return false
}

// isChainRole matches roleName's c%04d form.
func isChainRole(name string) bool {
	if len(name) != 5 || name[0] != 'c' {
		return false
	}
	for i := 1; i < 5; i++ {
		if name[i] < '0' || name[i] > '9' {
			return false
		}
	}
	return true
}

// The check session is user u0 with the chain top activated: it holds the
// fixture's one user privilege, read on obj, and nothing else.
const (
	sessionUser = "u0"
	sessionRole = "c0000"
)

func expectCheck(c wire.Check) bool { return c.Action == "read" && c.Object == "obj" }

// fixture is one tenant's churn fixture.
type fixture struct {
	name         string
	roles, users int
}

func (f fixture) policy() *policy.Policy { return workload.ChurnPolicy(f.roles, f.users) }

// grant returns the k-th command of the tenant's write stream: the fixture's
// churn order over every (member user, chain role) pair. Positions past the
// last pair repeat earlier ones.
func (f fixture) grant(k int64) command.Command {
	return workload.ChurnGrant(int(k%int64(f.roles*f.users)), f.users, f.roles)
}

// fresh reports whether stream position k adds a new assignment.
func (f fixture) fresh(k int64) bool { return k < int64(f.roles*f.users) }

// fixtureSet is every tenant a run serves.
type fixtureSet struct {
	tenants []fixture
	byName  map[string]int
}

func newFixtureSet(tenants []fixture) *fixtureSet {
	fx := &fixtureSet{tenants: tenants, byName: make(map[string]int, len(tenants))}
	for i, t := range tenants {
		fx.byName[t.name] = i
	}
	return fx
}

func (fx *fixtureSet) names() []string {
	out := make([]string, len(fx.tenants))
	for i, t := range fx.tenants {
		out[i] = t.name
	}
	return out
}

// bootstrap seeds exactly the set's tenants.
func (fx *fixtureSet) bootstrap(name string) *policy.Policy {
	i, ok := fx.byName[name]
	if !ok {
		return nil
	}
	return fx.tenants[i].policy()
}

// probe draws one authorize command for f. The allowed family is an admin
// grant of a member user to a chain role; the denied families are the same
// grant issued by a member (who holds no administrative privilege) and an
// admin grant between two chain roles (the source reaches no member, so the
// command lies outside the refinement of the held privilege). denyShare of
// the draws are denied, split evenly between the two families.
func probe(rng *rand.Rand, f fixture, denyShare float64) command.Command {
	u := model.User(userName(rng.Intn(f.users)))
	r := model.Role(roleName(rng.Intn(f.roles)))
	x := rng.Float64()
	switch {
	case x < denyShare/2:
		return command.Grant(userName(rng.Intn(f.users)), u, r)
	case x < denyShare:
		return command.Grant(adminUser, model.Role(roleName(rng.Intn(f.roles))), r)
	default:
		return command.Grant(adminUser, u, r)
	}
}

// checkProbe draws one session check: read on obj is held, write is not.
func checkProbe(rng *rand.Rand, denyShare float64) wire.Check {
	if rng.Float64() < denyShare {
		return wire.Check{Action: "write", Object: "obj"}
	}
	return wire.Check{Action: "read", Object: "obj"}
}
