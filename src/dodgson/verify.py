"""Empirical verification suites for the gadget constructions.

Each suite replays the contract of one construction family against the exact
solver (and, where feasible, brute force): the matching reduction's score gap,
sum additivity, the merge +1 and dominance laws, the parity combiner's
odd/even law, and the end-to-end ranking/winner reductions.

Trials are driven by per-trial seeds derived from (seed, suite label, trial
index), so results are independent of execution order and identical across
runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .elections import (
    DodgsonTriple,
    Election,
    PreferenceOrder,
    VoterProfile,
    parse_election,
    serialize_election,
)
from .gadgets import (
    Sentinel,
    TwoERInstance,
    build_merge,
    build_sum,
    parity_combine,
    reduce_2er_to_ranking,
    reduce_2er_to_winner,
    reduce_3dm,
)
from .matching import (
    CANONICAL_NO,
    CANONICAL_YES,
    MatchingInstance,
    _canonical_universe,
    enumerate_instances,
    has_matching,
    serialize_matching,
)
from .scoring import (
    _rival_at_most,
    is_winner,
    ranks_at_least,
    score_exact,
    two_election_ranking,
)

__all__ = [
    "RunConfig",
    "PropertyCheck",
    "SUITE_NAMES",
    "run_suite",
    "trial_rng",
    "random_election",
    "random_triple",
    "random_matching",
    "merge_corpus",
]


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int = 25


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    checked: int
    detail: str
    fixtures: dict[str, str]


def _first_failures(cases, checks) -> list[PropertyCheck]:
    """Run the (name, check) pairs on each case in turn, stopping at the first
    counterexample.  A check returns None or the counterexample's (detail,
    fixtures); every property reports the number of cases reached."""
    checked = 0
    failures: dict[str, tuple[str, dict]] = {}
    for case in cases:
        checked += 1
        for name, check in checks:
            failure = check(case)
            if failure is not None:
                failures[name] = failure
                break
        if failures:
            break
    return [PropertyCheck(name, name not in failures, checked, *failures.get(name, ("", {})))
            for name, _ in checks]


def trial_rng(seed: int, label: str, index: int) -> random.Random:
    # string seeding hashes with sha512: stable across platforms and runs
    return random.Random(f"{seed}:{label}:{index}")


def random_election(rng: random.Random, candidates: tuple[str, ...], voters: int) -> Election:
    orders = []
    for _ in range(voters):
        names = list(candidates)
        rng.shuffle(names)
        orders.append(PreferenceOrder(tuple(names)))
    return Election(candidates, VoterProfile.from_orders(sorted(orders, key=str)))


def random_triple(rng: random.Random, name_pool: tuple[str, ...],
                  max_candidates: int) -> DodgsonTriple:
    count = rng.randint(1, max_candidates)
    candidates = tuple(name_pool[:count])
    election = random_election(rng, candidates, rng.choice((1, 3)))
    return DodgsonTriple(election, rng.choice(candidates))


def random_matching(rng: random.Random, q: int, m: int) -> MatchingInstance:
    tokens, universe = _canonical_universe(q)
    return MatchingInstance(*tokens, tuple(rng.sample(universe, m)))


def merge_corpus(config: RunConfig) -> list[tuple[DodgsonTriple, DodgsonTriple]]:
    """Random pairs of small odd-voter triples over disjoint name pools."""
    pairs = []
    for i in range(config.trials):
        rng = trial_rng(config.seed, "merge", i)
        t1 = random_triple(rng, ("a1", "a2", "a3"), max_candidates=3)
        t2 = random_triple(rng, ("z1", "z2", "z3"), max_candidates=3)
        pairs.append((t1, t2))
    return pairs


def _triple_fixtures(prefix: str, *triples: DodgsonTriple) -> dict[str, str]:
    fixtures = {}
    for i, triple in enumerate(triples, start=1):
        key = f"{prefix}-{i}.dodg" if len(triples) > 1 else f"{prefix}.dodg"
        fixtures[key] = f"# designated: {triple.designated}\n" + serialize_election(triple.election)
    return fixtures


# --- suite "3": matching reduction score gap ---------------------------------


def _check_gap(instance: MatchingInstance) -> tuple[bool, str]:
    reduced = reduce_3dm(instance)
    gap = score_exact(reduced.triple).score - reduced.threshold
    expected = 0 if has_matching(instance) else 1
    ok = gap == expected
    detail = "" if ok else f"score gap {gap}, expected {expected}"
    return ok, detail


def verify_reduction_gap(config: RunConfig) -> list[PropertyCheck]:
    q2 = list(enumerate_instances(2, (2, 4)))
    q3 = []
    for i in range(config.trials):
        rng = trial_rng(config.seed, "q3", i)
        q3.append(random_matching(rng, 3, rng.randint(2, 12)))

    def gap(instance):
        ok, detail = _check_gap(instance)
        return None if ok else (detail, {"counterexample.3dm": serialize_matching(instance)})

    return (_first_failures(q2, [("score-gap-exhaustive-q2", gap)])
            + _first_failures(q3, [("score-gap-random-q3", gap)]))


# --- suite "4": sum additivity ------------------------------------------------


def verify_sum_additivity(config: RunConfig) -> list[PropertyCheck]:
    def sums():
        for i in range(config.trials):
            rng = trial_rng(config.seed, "sum", i)
            parts = [random_triple(rng, ("a", "b", "c", "d"), max_candidates=4)
                     for _ in range(rng.randint(1, 3))]
            total, info = build_sum(parts)
            yield parts, total, info

    def shape(case):
        parts, total, info = case
        expected_voters = 2 * sum(p.election.n for p in parts) - 1
        expected_separators = sum(len(p.election.candidates) * p.election.n for p in parts)
        if total.election.n == expected_voters and info["separators"]["s"] == expected_separators:
            return None
        return "voter count or separator size off", _triple_fixtures("counterexample-sum", total)

    def additivity(case):
        parts, total, _ = case
        want = sum(score_exact(p).score for p in parts)
        got = score_exact(total).score
        if got == want:
            return None
        return (f"sum score {got}, expected {want}",
                _triple_fixtures("counterexample-input", *parts)
                | _triple_fixtures("counterexample-sum", total))

    shaped, additive = _first_failures(
        sums(), [("sum-shape", shape), ("sum-additivity", additivity)]
    )
    return [additive, shaped]


# --- suite "6": merge laws ------------------------------------------------------


def verify_merge_laws(config: RunConfig) -> list[PropertyCheck]:
    def merges():
        for t1, t2 in merge_corpus(config):
            instance, _ = build_merge(t1, t2)
            merged = [score_exact(DodgsonTriple(instance.election, name)).score
                      for name in (instance.first, instance.second)]
            yield t1, t2, instance, merged

    def shape(case):
        t1, t2, instance, _ = case
        n = instance.election.n
        if n == 2 * max(t1.n, t2.n) + min(t1.n, t2.n) + 1 and n % 2 == 0:
            return None
        return f"voter count {n}", _triple_fixtures("counterexample-input", t1, t2)

    def plus_one(case):
        t1, t2, _, merged = case
        expected = [score_exact(t).score + 1 for t in (t1, t2)]
        if merged == expected:
            return None
        return (
            f"merged scores ({merged[0]}, {merged[1]}), "
            f"expected ({expected[0]}, {expected[1]})",
            _triple_fixtures("counterexample-input", t1, t2),
        )

    def dominance(case):
        t1, t2, instance, merged = case
        other = _rival_at_most(instance.election, merged[0], (instance.first, instance.second))
        if other is None:
            return None
        return (f"{other!r} scores at most {merged[0]}",
                _triple_fixtures("counterexample-input", t1, t2))

    shaped, plus, dominant = _first_failures(merges(), [
        ("merge-shape", shape), ("merge-plus-one", plus_one), ("merge-dominance", dominance),
    ])
    return [plus, dominant, shaped]


# --- suite "wagner": parity law -------------------------------------------------


def verify_parity_combiner(config: RunConfig) -> list[PropertyCheck]:
    def law(case):
        k, yes_count = case
        # member-first input list: yes-instances, then no
        combo = [CANONICAL_YES] * yes_count + [CANONICAL_NO] * (2 * k - yes_count)
        instance = parity_combine(combo)
        answered = two_election_ranking(instance.left, instance.right)
        expected = yes_count % 2 == 1
        if answered == expected:
            return None
        return f"k={k}, {yes_count} members: got {answered}, expected {expected}", {}

    cases = [(k, yes_count) for k in (1, 2) for yes_count in range(2 * k, -1, -1)]
    return _first_failures(cases, [("parity-law", law)])


# --- suite "theorems": end-to-end reductions ------------------------------------


def verify_end_to_end(config: RunConfig) -> list[PropertyCheck]:
    def pairs():
        for t1, t2 in merge_corpus(config):
            yield TwoERInstance(t1, t2), two_election_ranking(t1, t2)

    def ranking(case):
        pair, member = case
        ranked = reduce_2er_to_ranking(pair)
        if not isinstance(ranked, Sentinel) and ranks_at_least(
            ranked.election, ranked.first, ranked.second
        ) == member:
            return None
        return (f"ranking membership mismatch (expected {member})",
                _triple_fixtures("counterexample-input", pair.left, pair.right))

    def winner(case):
        pair, member = case
        won = reduce_2er_to_winner(pair)
        if not isinstance(won, Sentinel) and is_winner(won) == member:
            return None
        return (f"winner membership mismatch (expected {member})",
                _triple_fixtures("counterexample-input", pair.left, pair.right))

    def contained(value):
        if isinstance(reduce_2er_to_ranking(value), Sentinel) and isinstance(
            reduce_2er_to_winner(value), Sentinel
        ):
            return None
        return "a malformed input escaped the sentinel", {}

    even = DodgsonTriple(parse_election("candidates: a b\n1: a<b\n1: b<a\n"), "a")
    odd = DodgsonTriple(parse_election("candidates: z y\n1: z<y\n"), "z")
    clashing = DodgsonTriple(parse_election("candidates: a b\n1: a<b\n"), "a")
    malformed: list[object] = ["garbage", 42, None, (even, odd), (clashing, clashing)]
    return (_first_failures(pairs(), [("ranking-reduction", ranking), ("winner-reduction", winner)])
            + _first_failures(malformed, [("sentinel-branch", contained)]))


_SUITES = {
    "3": verify_reduction_gap,
    "4": verify_sum_additivity,
    "6": verify_merge_laws,
    "wagner": verify_parity_combiner,
    "theorems": verify_end_to_end,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, config: RunConfig) -> list[PropertyCheck]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name](config)
