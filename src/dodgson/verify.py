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

import itertools
import random
from dataclasses import dataclass, field

from .elections import (
    DodgsonTriple,
    Election,
    PreferenceOrder,
    VoterProfile,
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
    enumerate_instances,
    has_matching,
    serialize_matching,
)
from .scoring import (
    DEFAULT_STATE_CAP,
    is_winner,
    ranks_at_least,
    score_decision,
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

SUITE_NAMES = ("3", "4", "6", "wagner", "theorems")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int = 25
    state_cap: int = DEFAULT_STATE_CAP


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    checked: int
    detail: str = ""
    fixtures: dict[str, str] = field(default_factory=dict)


def _property(name: str, checked: int, failure: tuple[str, dict] | None) -> PropertyCheck:
    """One property's result; ``failure`` is (detail, fixtures) of the first
    counterexample, or None when every check passed."""
    detail, fixtures = failure or ("", {})
    return PropertyCheck(name, failure is None, checked, detail, fixtures)


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


def random_triple(
    rng: random.Random,
    name_pool: tuple[str, ...],
    max_candidates: int,
    voter_choices: tuple[int, ...] = (1, 3),
) -> DodgsonTriple:
    count = rng.randint(1, max_candidates)
    candidates = tuple(name_pool[:count])
    election = random_election(rng, candidates, rng.choice(voter_choices))
    return DodgsonTriple(election, rng.choice(candidates))


def random_matching(rng: random.Random, q: int, m: int) -> MatchingInstance:
    w = tuple(f"w{i}" for i in range(1, q + 1))
    x = tuple(f"x{i}" for i in range(1, q + 1))
    y = tuple(f"y{i}" for i in range(1, q + 1))
    universe = sorted(itertools.product(w, x, y))
    return MatchingInstance(w, x, y, tuple(rng.sample(universe, m)))


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


def _check_gap(instance: MatchingInstance, state_cap: int) -> tuple[bool, str]:
    reduced = reduce_3dm(instance)
    gap = score_exact(reduced.triple, state_cap=state_cap).score - reduced.threshold
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

    def first_failure(instances, check):
        checked = 0
        for instance in instances:
            checked += 1
            detail = check(instance)
            if detail:
                return checked, (detail, {"counterexample.3dm": serialize_matching(instance)})
        return checked, None

    def gap(instance):
        ok, detail = _check_gap(instance, config.state_cap)
        return None if ok else detail

    def odd(instance):
        n = reduce_3dm(instance).triple.election.n
        return f"even voter count {n}" if n % 2 == 0 else None

    return [
        _property("score-gap-exhaustive-q2", *first_failure(q2, gap)),
        _property("score-gap-random-q3", *first_failure(q3, gap)),
        _property("reduction-output-odd-voters", *first_failure(q2 + q3, odd)),
    ]


# --- suite "4": sum additivity ------------------------------------------------


def verify_sum_additivity(config: RunConfig) -> list[PropertyCheck]:
    additivity_failure = None
    shape_failure = None
    checked = 0
    for i in range(config.trials):
        rng = trial_rng(config.seed, "sum", i)
        parts = [
            random_triple(rng, ("a", "b", "c", "d"), max_candidates=4)
            for _ in range(rng.randint(1, 3))
        ]
        total, info = build_sum(parts)
        checked += 1
        expected_voters = 2 * sum(p.election.n for p in parts) - 1
        expected_separators = sum(len(p.election.candidates) * p.election.n for p in parts)
        if total.election.n != expected_voters or info["separators"]["s"] != expected_separators:
            shape_failure = ("voter count or separator size off",
                             _triple_fixtures("counterexample-sum", total))
            break
        want = sum(score_exact(p, state_cap=config.state_cap).score for p in parts)
        got = score_exact(total, state_cap=config.state_cap).score
        if got != want:
            additivity_failure = (
                f"sum score {got}, expected {want}",
                _triple_fixtures("counterexample-input", *parts)
                | _triple_fixtures("counterexample-sum", total),
            )
            break
    return [
        _property("sum-additivity", checked, additivity_failure),
        _property("sum-shape", checked, shape_failure),
    ]


# --- suite "6": merge laws ------------------------------------------------------


def verify_merge_laws(config: RunConfig) -> list[PropertyCheck]:
    plus_failure = None
    dominance_failure = None
    shape_failure = None
    checked = 0
    for t1, t2 in merge_corpus(config):
        instance, info = build_merge(t1, t2)
        checked += 1
        election = instance.election
        if election.n != 2 * max(t1.n, t2.n) + min(t1.n, t2.n) + 1 or election.n % 2:
            shape_failure = (f"voter count {election.n}",
                             _triple_fixtures("counterexample-input", t1, t2))
        s1 = score_exact(t1, state_cap=config.state_cap).score
        s2 = score_exact(t2, state_cap=config.state_cap).score
        merged_first = score_exact(
            DodgsonTriple(election, instance.first), state_cap=config.state_cap
        ).score
        merged_second = score_exact(
            DodgsonTriple(election, instance.second), state_cap=config.state_cap
        ).score
        if merged_first != s1 + 1 or merged_second != s2 + 1:
            plus_failure = (
                f"merged scores ({merged_first}, {merged_second}), expected ({s1 + 1}, {s2 + 1})",
                _triple_fixtures("counterexample-input", t1, t2),
            )
            break
        for other in election.candidates:
            if other in (instance.first, instance.second):
                continue
            rival = DodgsonTriple(election, other)
            if score_decision(rival, merged_first, state_cap=config.state_cap):
                dominance_failure = (f"{other!r} scores at most {merged_first}",
                                     _triple_fixtures("counterexample-input", t1, t2))
                break
        if dominance_failure:
            break
    return [
        _property("merge-plus-one", checked, plus_failure),
        _property("merge-dominance", checked, dominance_failure),
        _property("merge-shape", checked, shape_failure),
    ]


# --- suite "wagner": parity law -------------------------------------------------


def _sorted_combos(k: int):
    """Member-first input lists for the combiner: yes-instances, then no."""
    for yes_count in range(2 * k, -1, -1):
        yield [CANONICAL_YES] * yes_count + [CANONICAL_NO] * (2 * k - yes_count)


def verify_parity_combiner(config: RunConfig) -> list[PropertyCheck]:
    failure = None
    checked = 0
    for k in (1, 2):
        for combo in _sorted_combos(k):
            instance = parity_combine(combo)
            answered = two_election_ranking(
                instance.left, instance.right, state_cap=config.state_cap
            )
            yes_count = sum(1 for x in combo if x == CANONICAL_YES)
            expected = yes_count % 2 == 1
            checked += 1
            if answered != expected:
                failure = (f"k={k}, {yes_count} members: got {answered}, expected {expected}", {})
                break
        if failure:
            break
    return [_property("parity-law", checked, failure)]


# --- suite "theorems": end-to-end reductions ------------------------------------


def verify_end_to_end(config: RunConfig) -> list[PropertyCheck]:
    ranking_failure = None
    winner_failure = None
    checked = 0
    for t1, t2 in merge_corpus(config):
        member = two_election_ranking(t1, t2, state_cap=config.state_cap)
        pair = TwoERInstance(t1, t2)
        checked += 1
        ranked = reduce_2er_to_ranking(pair)
        if isinstance(ranked, Sentinel) or ranks_at_least(
            ranked.election, ranked.first, ranked.second, state_cap=config.state_cap
        ) != member:
            ranking_failure = (f"ranking membership mismatch (expected {member})",
                               _triple_fixtures("counterexample-input", t1, t2))
            break
        won = reduce_2er_to_winner(pair)
        if isinstance(won, Sentinel) or is_winner(won, state_cap=config.state_cap) != member:
            winner_failure = (f"winner membership mismatch (expected {member})",
                              _triple_fixtures("counterexample-input", t1, t2))
            break
    results = [
        _property("ranking-reduction", checked, ranking_failure),
        _property("winner-reduction", checked, winner_failure),
    ]
    even = DodgsonTriple(
        Election(
            ("a", "b"),
            VoterProfile.from_orders(
                [PreferenceOrder(("a", "b")), PreferenceOrder(("b", "a"))]
            ),
        ),
        "a",
    )
    odd = DodgsonTriple(
        Election(("z", "y"), VoterProfile(((PreferenceOrder(("z", "y")), 1),))), "z"
    )
    clashing = DodgsonTriple(
        Election(("a", "b"), VoterProfile(((PreferenceOrder(("a", "b")), 1),))), "a"
    )
    malformed: list[object] = ["garbage", 42, None, (even, odd), (clashing, clashing)]
    sentinel_ok = all(
        isinstance(reduce_2er_to_ranking(x), Sentinel)
        and isinstance(reduce_2er_to_winner(x), Sentinel)
        for x in malformed
    )
    escaped = None if sentinel_ok else ("a malformed input escaped the sentinel", {})
    results.append(_property("sentinel-branch", len(malformed), escaped))
    return results


_SUITES = {
    "3": verify_reduction_gap,
    "4": verify_sum_additivity,
    "6": verify_merge_laws,
    "wagner": verify_parity_combiner,
    "theorems": verify_end_to_end,
}


def run_suite(name: str, config: RunConfig) -> list[PropertyCheck]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name](config)
