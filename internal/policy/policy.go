// Package policy is the scheduling-policy layer: the decision surface every
// part of the stack — the simulator, the live server, the CLIs — programs
// against, plus a registry of the built-in policies. A policy owns job
// admission, assignment ordering, and completion bookkeeping; everything
// else (device registries, transports, federation) is policy-agnostic and
// selects its scheduler by name at startup.
//
// Built-in policies:
//
//   - "venn"   — the paper's scheduler: IRS contention-aware job ordering
//     plus tier-based device matching (internal/core).
//   - "fifo"   — FIFO request order with tier-based matching still in force
//     (the paper's "Venn w/o scheduling" ablation, promoted from the former
//     core.Options.DisableScheduling knob).
//   - "srsf"   — shortest remaining service first (internal/sched).
//   - "random" — optimized random matching (internal/sched); deterministic
//     for a fixed environment seed, since its priorities come from the
//     bound environment's private RNG stream.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"venn/internal/core"
	"venn/internal/sched"
	"venn/internal/sim"
)

// Policy is the scheduling decision surface. It is exactly the simulator's
// scheduler contract — the live server drives it with the same lifecycle
// events the simulation engine does, which is what lets one implementation
// serve both worlds unchanged.
type Policy = sim.Scheduler

// Config carries the construction-time knobs a policy factory may consult.
type Config struct {
	// Core configures the Venn family (tiers, epsilon, matching). Factories
	// that take no options ignore it. The zero value means defaults.
	Core core.Options
}

// Factory builds one policy instance. Instances are single-owner: they are
// driven under whatever lock serializes the caller's lifecycle events.
type Factory func(cfg Config) Policy

// registry is the fixed table of built-in policies, keyed by lower-case name.
var registry = map[string]Factory{
	"venn":   func(cfg Config) Policy { return core.New(cfg.Core) },
	"fifo":   func(cfg Config) Policy { return NewFIFOMatch(cfg.Core) },
	"srsf":   func(Config) Policy { return sched.NewSRSF() },
	"random": func(Config) Policy { return sched.NewRandom() },
}

// New builds the named policy (case-insensitive), or an error naming the
// valid choices.
func New(name string, cfg Config) (Policy, error) {
	f, ok := registry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return f(cfg), nil
}

// MustNew is New for statically known names; it panics on an unknown one.
func MustNew(name string, cfg Config) Policy {
	p, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Valid reports whether name resolves in the registry.
func Valid(name string) bool {
	_, ok := registry[strings.ToLower(name)]
	return ok
}

// Names lists the built-in policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Default is the policy venndaemon serves when none is requested.
const Default = "venn"
