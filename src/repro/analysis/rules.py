"""The rainlint rule registry.

Each rule is codebase-specific: it encodes a determinism or protocol
invariant of this reproduction that a generic linter cannot know about.
The simulation's credibility rests on bit-identical replay from one
master seed (see :mod:`repro.sim.rng`), and on protocol handlers never
silently eating the triggers whose exact delivery order the paper's
proofs reason about.  Rule text and fix hints live here; detection logic
lives in :mod:`repro.analysis.linter`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Rule", "RULES", "rule", "PARSE_RULE", "PROGRAM_RULES", "HB_RULES"]


@dataclass(frozen=True)
class Rule:
    """One named lint rule."""

    id: str
    title: str
    hint: str


_ALL = [
    Rule(
        "RL001",
        "wall-clock access in simulation code",
        "use the Simulator's virtual clock (sim.now); wall time makes "
        "traces unreproducible across hosts and runs",
    ),
    Rule(
        "RL002",
        "global/unseeded RNG",
        "route randomness through repro.sim.rng (a named stream from the "
        "master seed) or an explicitly-seeded np.random.default_rng(seed)",
    ),
    Rule(
        "RL003",
        "id()/hash() in a user-visible string or ordering key",
        "memory addresses and salted hashes differ per process and break "
        "trace determinism; use a name, index, or stable counter",
    ),
    Rule(
        "RL004",
        "iteration over an unordered set/dict-view feeding effects",
        "wrap the iterable in sorted(...) so event emission order is "
        "independent of hash seeding and insertion history",
    ),
    Rule(
        "RL005",
        "mutable default argument",
        "default to None and create the list/dict/set inside the function "
        "(shared defaults leak state across calls)",
    ),
    Rule(
        "RL006",
        "bare except in a protocol event handler",
        "on_*/_on_* handlers must not swallow arbitrary exceptions; catch "
        "the specific error or let it propagate so dropped triggers are "
        "loud, not silent protocol divergence",
    ),
    Rule(
        "RL007",
        "per-event metric lookup in a hot path",
        "bind the series once, at init or on first observation (store "
        "family.labels(...) on self), and call .inc()/.observe() on the "
        "bound series; .labels() and "
        "registry counter/gauge/histogram lookups per event dominate "
        "hot-handler cost",
    ),
    # -- whole-program rules (repro.analysis.program; need the import/call
    # -- graph, so they only run under ``lint --strict``) ------------------
    Rule(
        "RL009",
        "event handler transitively reaches wall clock or global RNG",
        "an on_*/_on_* handler or scheduled kernel callback calls, "
        "through any number of helpers, code that reads the wall clock "
        "or draws from global RNG state; route the whole chain through "
        "sim.now / repro.sim.rng so replay stays bit-identical",
    ),
    Rule(
        "RL010",
        "span/ctx dropped across a shard handoff serialization path",
        "a function on the cross-shard handoff path (stages Handoffs, "
        "appends to an outbox, or serves as an on_inject handler) "
        "rebuilds a ctx/span-carrying object without forwarding its "
        "ctx/span fields, silently severing the causal trace at the "
        "shard boundary; pass ctx=... / span_id=... through the wire "
        "record",
    ),
    Rule(
        "RL011",
        "unordered iteration feeding handoff pickling or trace emission",
        "the result of iterating a bare set/dict-view escapes, possibly "
        "through intermediate returns, into pickle.dumps for a shard "
        "handoff or into a trace/bus emission; wrap the iteration in "
        "sorted(...) so serialized bytes and traces are independent of "
        "hash seeding",
    ),
    Rule(
        "RL012",
        "mutation or aliasing of another shard's kernel outside a barrier",
        "reaching a peer object's kernel through a kernel-valued "
        "attribute (any attribute the program binds from *.sim or a "
        "kernel constructor, not just one literally named 'sim') and "
        "then reading its clock, scheduling on it, aliasing it into a "
        "local, mutating state through it, or shipping it through a "
        "pipe send couples two shards outside the barrier protocol; "
        "bind your own kernel once at init and let cross-shard effects "
        "travel as handoffs (opaque blobs — never live kernel objects)",
    ),
    Rule(
        "RL013",
        "no caller",
        "nothing in the linted paths uses this library def, method or "
        "class (imports and __all__ entries do not count; tests are not "
        "linted, so a name only tests reach is reported too); delete it, "
        "give it a caller, or keep it with a pragma whose reason names "
        "what it serves",
    ),
]

#: ids of the interprocedural rules, which need the whole-program index
#: (:mod:`repro.analysis.program`) and therefore only run under
#: ``python -m repro lint --strict``
PROGRAM_RULES = ("RL009", "RL010", "RL011", "RL012", "RL013")

#: rule id -> Rule, in id order
RULES: dict[str, Rule] = {r.id: r for r in sorted(_ALL, key=lambda r: r.id)}

#: pseudo-rule reported when a file cannot be parsed at all
PARSE_RULE = Rule("RL000", "file does not parse", "fix the syntax error")

#: dynamic happens-before sanitizer rules (:mod:`repro.analysis.hb`),
#: reported by ``python -m repro sanitize`` rather than ``lint``
_HB_ALL = [
    Rule(
        "HB001",
        "event below the guaranteed lookahead horizon",
        "a cross-shard handoff was staged arriving at or before its "
        "destination's bound for the round, or injected at or below the "
        "time the destination already ran to; the partitioner's "
        "lookahead exceeds the actual boundary latency, or the grant "
        "check or the stop at the first crossing was bypassed",
    ),
    Rule(
        "HB002",
        "cross-shard access with no happens-before edge",
        "code running inside one shard kernel's round scheduled onto a "
        "different kernel; only staged handoffs may cross shards, so "
        "bind components to their owning kernel and let cross-shard "
        "effects travel as Handoffs",
    ),
    Rule(
        "HB003",
        "gauge merge disagrees across shards",
        "a replicated gauge holds different values in different shard "
        "kernels, so replica state has silently diverged; replicate the "
        "mutation via control_each or make the gauge shard-owned",
    ),
]

#: rule id -> Rule for the dynamic sanitizer, in id order
HB_RULES: dict[str, Rule] = {r.id: r for r in sorted(_HB_ALL, key=lambda r: r.id)}


def rule(rule_id: str) -> Rule:
    """Look up a rule by id (including the parse pseudo-rule)."""
    if rule_id == PARSE_RULE.id:
        return PARSE_RULE
    return RULES[rule_id]
