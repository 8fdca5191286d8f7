"""The best-first oracle against a literal recount reference, and the
voter-type exact search against the oracle on grouped profiles."""

import itertools
import random

import pytest
from conftest import time_limit

from dodgson import (
    CANONICAL_NO,
    CANONICAL_YES,
    DodgsonTriple,
    Election,
    PreferenceOrder,
    VoterProfile,
    condorcet_winner,
    parity_combine,
    reduce_2er_to_winner,
    reduce_3dm,
    score_exact,
    score_oracle,
    unit_chain,
)
from dodgson.elections import deficit_vector, majority_threshold


def _reference_oracle(triple: DodgsonTriple, cap: int = 20) -> int | None:
    """The oracle as first written: profiles as sorted tuples of orders, and a
    full recount of every pairwise contest at each newly visited state."""
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    election = triple.election
    index = {name: i for i, name in enumerate(election.candidates)}
    c = index[triple.designated]
    size = len(election.candidates)
    need = majority_threshold(election.n)
    others = [i for i in range(size) if i != c]

    def wins(state: tuple[tuple[int, ...], ...]) -> bool:
        positions = [{cand: pos for pos, cand in enumerate(order)} for order in state]
        for d in others:
            if sum(1 for pos in positions if pos[c] > pos[d]) < need:
                return False
        return True

    start = tuple(sorted(
        tuple(index[x] for x in order.ranking) for order in election.profile.orders()
    ))
    if wins(start):
        return 0
    visited = {start}
    frontier = [start]
    depth = 0
    while frontier and depth < cap:
        depth += 1
        nxt = []
        for state in frontier:
            entries = list(state)
            for vi, order in enumerate(entries):
                if vi and order == entries[vi - 1]:
                    continue  # duplicate voter: identical successor states
                for p in range(size - 1):
                    swapped = order[:p] + (order[p + 1], order[p]) + order[p + 2:]
                    successor = tuple(sorted(entries[:vi] + [swapped] + entries[vi + 1:]))
                    if successor in visited:
                        continue
                    visited.add(successor)
                    if wins(successor):
                        return depth
                    nxt.append(successor)
        frontier = nxt
    return None


def _triples(e: Election):
    return [DodgsonTriple(e, name) for name in e.candidates]


def _random_orders(rng: random.Random, candidates: str, count: int) -> list[PreferenceOrder]:
    return [PreferenceOrder(tuple(rng.sample(candidates, len(candidates)))) for _ in range(count)]


def _grouped(rng: random.Random, candidates: str, voters: int, groups: int) -> Election:
    """``voters`` voters over ``groups`` distinct orders, each held by at least one."""
    perms = list(itertools.permutations(candidates))
    orders = [PreferenceOrder(p) for p in rng.sample(perms, groups)]
    cuts = sorted(rng.sample(range(1, voters), groups - 1))
    mults = [b - a for a, b in zip([0] + cuts, cuts + [voters])]
    return Election(tuple(candidates), VoterProfile(tuple(zip(orders, mults))))


# --- the oracle against the literal reference ----------------------------------


def test_oracle_matches_reference_on_every_small_profile():
    checked = 0
    for size in (1, 2, 3):
        candidates = tuple("abc"[:size])
        orders = [PreferenceOrder(p) for p in itertools.permutations(candidates)]
        for voters in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(orders, voters):
                for t in _triples(Election(candidates, VoterProfile.from_orders(combo))):
                    assert score_oracle(t) == _reference_oracle(t), (combo, t.designated)
                    checked += 1
    assert checked == 1 * (1 + 1 + 1) + 2 * (2 + 3 + 4) + 3 * (6 + 21 + 56)


def test_oracle_matches_reference_on_seeded_4x5_profiles():
    # one seeded designated candidate per profile keeps the reference's
    # recounts within a second or so
    rng = random.Random("oracle:4x5")
    for _ in range(40):
        e = Election(tuple("abcd"), VoterProfile.from_orders(_random_orders(rng, "abcd", 5)))
        t = DodgsonTriple(e, rng.choice("abcd"))
        assert score_oracle(t) == _reference_oracle(t), (e, t.designated)


def test_oracle_cap_edges_match_reference():
    rng = random.Random("oracle:caps")
    seen_positive = 0
    for _ in range(10):
        e = Election(tuple("abcd"), VoterProfile.from_orders(_random_orders(rng, "abcd", 3)))
        for t in _triples(e):
            score = _reference_oracle(t)
            assert score_oracle(t, cap=score) == _reference_oracle(t, cap=score) == score
            if score:
                seen_positive += 1
                assert score_oracle(t, cap=score - 1) is None
                assert _reference_oracle(t, cap=score - 1) is None
    assert seen_positive
    with pytest.raises(ValueError):
        score_oracle(unit_chain(1), cap=-1)


def test_oracle_cap_zero_on_a_condorcet_winner():
    e = Election(tuple("abc"), VoterProfile.from_orders(
        [PreferenceOrder(tuple(s.split("<"))) for s in ("a<b<c", "b<a<c", "a<c<b")]
    ))
    assert condorcet_winner(e) == "c"
    t = DodgsonTriple(e, "c")
    assert score_oracle(t, cap=0) == _reference_oracle(t, cap=0) == 0
    assert score_oracle(DodgsonTriple(e, "a"), cap=0) is None


def test_oracle_cap_check_reads_one_row_on_the_parity_chain():
    # 2,900 candidates in 14 voter groups: the start needs only the designated
    # candidate's row, one walk of the groups; the all-pairs tally of its
    # 8.4 million counts took 16 s on 2 shared cores
    t = reduce_2er_to_winner(parity_combine([CANONICAL_YES, CANONICAL_NO]))
    assert len(t.election.candidates) == 2900
    assert sum(deficit_vector(t).values()) == 14
    with time_limit(2):
        assert score_oracle(t, cap=13) is None
        assert score_oracle(t, cap=0) is None


def test_oracle_matches_reference_on_unit_chain():
    t = unit_chain(5)
    assert score_oracle(t) == _reference_oracle(t) == 5


def _slack_profile(k: int, spacing: int, lovers: int) -> DodgsonTriple:
    """``c`` beats ``x1..xk`` and is short of a majority against each of
    ``lovers`` opponents (``y``, then ``z``).  The voters that rank those
    opponents above ``c`` also rank ``spacing`` of the x's just above it, so
    every switch toward a missing vote first passes an x that ``c`` already
    beats: the score exceeds the deficit sum by ``spacing``.  The other
    ``k - 1`` voters rank ``c`` first and the opponents last.  ``(3, 1, 1)``
    is x2 x3 c x1 y / x1 x3 c x2 y / x1 x2 c x3 y / y x1 x2 x3 c (twice),
    lowest first: deficit sum 1, score 2."""
    xs = [f"x{i}" for i in range(1, k + 1)]
    top = ["y", "z"][:lovers]
    orders = []
    for i in range(k):
        beaten = [xs[(i + j) % k] for j in range(spacing)]
        rest = [x for x in xs if x not in beaten]
        orders.append(PreferenceOrder(tuple(rest + ["c"] + beaten + top)))
    orders += [PreferenceOrder(tuple(top + xs + ["c"]))] * (k - 1)
    return DodgsonTriple(Election(tuple(xs + ["c"] + top), VoterProfile.from_orders(orders)), "c")


@pytest.mark.parametrize(
    "k, spacing, lovers, score",
    [(3, 1, 1, 2), (4, 1, 1, 2), (3, 2, 1, 3), (4, 2, 1, 3), (3, 1, 2, 3), (4, 1, 2, 3),
     (4, 2, 2, 4)],
)
def test_oracle_matches_reference_above_the_deficit_sum(k, spacing, lovers, score):
    # the search's slack: exchanges that leave the missing votes unchanged,
    # and the designated candidate moving down, must not hide the score
    t = _slack_profile(k, spacing, lovers)
    deficit_sum = sum(deficit_vector(t).values())
    assert deficit_sum == lovers and score == deficit_sum + spacing
    assert score_oracle(t) == _reference_oracle(t) == score
    assert score_oracle(t, cap=score) == _reference_oracle(t, cap=score) == score
    assert score_oracle(t, cap=score - 1) is None
    assert _reference_oracle(t, cap=score - 1) is None
    assert score_oracle(t, cap=deficit_sum - 1) is None
    assert _reference_oracle(t, cap=deficit_sum - 1) is None
    assert score_exact(t).score == score


# --- the voter-type search against the oracle ------------------------------------


@pytest.mark.parametrize(
    "candidates, voters, groups, count",
    [("abc", 7, 3, 60), ("abc", 9, 2, 60), ("abcd", 5, 2, 40)],
)
def test_exact_matches_oracle_on_grouped_profiles(candidates, voters, groups, count):
    rng = random.Random(f"oracle:groups:{candidates}:{voters}:{groups}")
    for _ in range(count):
        e = _grouped(rng, candidates, voters, groups)
        assert e.n == voters and len(e.profile.groups) == groups
        for t in _triples(e):
            assert score_exact(t).score == score_oracle(t), (e, t.designated)


def test_exact_matches_oracle_on_five_candidates_three_voters():
    rng = random.Random("oracle:5x3")
    for _ in range(60):
        e = Election(tuple("abcde"), VoterProfile.from_orders(_random_orders(rng, "abcde", 3)))
        for t in _triples(e):
            assert score_exact(t).score == score_oracle(t), (e, t.designated)


# --- the oracle at the reductions' scale -----------------------------------------


def test_oracle_answers_a_many_voter_near_tie():
    # 10,000,001 voters at score 1: a state holds the voters that left their
    # start order, so it never lists an order per voter
    e = Election(tuple("abc"), VoterProfile((
        (PreferenceOrder(tuple("abc")), 5_000_000), (PreferenceOrder(tuple("cba")), 5_000_001),
    )))
    with time_limit(2):
        assert score_oracle(DodgsonTriple(e, "b")) == 1


def test_oracle_confirms_the_parity_chain_winner_score():
    # 2,900 candidates, score 14 = h0: the search builds only the raises past a
    # needed opponent, never the 2,899 other exchanges of an order it expands
    with time_limit(2):
        t = reduce_2er_to_winner(parity_combine([CANONICAL_YES, CANONICAL_NO]))
        assert score_oracle(t) == score_exact(t).score == 14


def test_oracle_matches_exact_on_every_candidate_of_the_3dm_reductions():
    scores = []
    for instance in (CANONICAL_YES, CANONICAL_NO):
        e = reduce_3dm(instance).triple.election
        for t in _triples(e):
            scores.append(score_oracle(t))
            assert scores[-1] == score_exact(t).score, (instance, t.designated)
    assert len(scores) == 18 and min(scores) == 1 and max(scores) == 12


@pytest.mark.parametrize("k", [6, 7])
def test_oracle_reaches_four_above_the_deficit_sum(k):
    # every switch toward the missing vote first passes four beaten x's, so the
    # search stages Δ = 1 and Δ = 2 successors up to the score, 4 above h0
    t = _slack_profile(k, 4, 1)
    assert sum(deficit_vector(t).values()) == 1
    with time_limit(3):
        assert score_oracle(t) == score_exact(t).score == 5
