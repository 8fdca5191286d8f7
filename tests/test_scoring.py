import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dodgson import (
    DodgsonTriple,
    Election,
    PreferenceOrder,
    VoterProfile,
    all_scores,
    apply_raises,
    condorcet_winner,
    deficit_vector,
    dodgson_winners,
    is_winner,
    merge,
    parse_matching,
    ranks_at_least,
    reduce_3dm,
    score_decision,
    score_exact,
    score_oracle,
    two_election_ranking,
    unit_chain,
)

from dodgson.scoring import _CoverSearch, _cover_problem

from conftest import election, time_limit


def triple(e: Election, name: str) -> DodgsonTriple:
    return DodgsonTriple(e, name)


# --- fixed values -----------------------------------------------------------


def test_condorcet_winner_scores_zero(unanimous):
    result = score_exact(triple(unanimous, "c"))
    assert result.score == 0
    assert result.witness == (0, 0, 0)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_unit_chain_scores(m):
    assert score_exact(unit_chain(m)).score == m


def test_cycle_scores_one_each(cycle):
    assert all_scores(cycle) == {"a": 1, "b": 1, "c": 1}


def test_unanimous_scores(unanimous):
    assert all_scores(unanimous) == {"a": 4, "b": 2, "c": 0}


def test_single_candidate_election():
    e = election("solo", "solo")
    assert all_scores(e) == {"solo": 0}
    assert dodgson_winners(e) == ["solo"]


# --- decisions ----------------------------------------------------------------


def test_decision_budgets(unanimous, cycle):
    assert score_decision(triple(unanimous, "c"), 0) is True
    assert score_decision(unit_chain(5), 4) is False
    assert score_decision(unit_chain(5), 5) is True
    assert score_decision(triple(cycle, "a"), 0) is False
    with pytest.raises(ValueError):
        score_decision(triple(cycle, "a"), -1)


@given(st.integers(1, 4), st.integers(0, 5))
def test_decision_monotone(m, budget):
    chain = unit_chain(m)
    if score_decision(chain, budget):
        assert score_decision(chain, budget + 1)


def test_decision_matches_exact_on_cycle(cycle):
    for name in "abc":
        t = triple(cycle, name)
        exact = score_exact(t).score
        for budget in range(exact + 2):
            assert score_decision(t, budget) == (exact <= budget)


# --- the breadth-first oracle ----------------------------------------------------


def test_oracle_fixed_points(cycle, unanimous):
    assert score_oracle(triple(unanimous, "c"), 5) == 0
    assert score_oracle(triple(cycle, "c"), 5) == 1
    assert score_oracle(unit_chain(2), 5) == 2


def test_oracle_cap_exhaustion():
    assert score_oracle(unit_chain(5), 2) is None


_ORDERS3 = [PreferenceOrder(p) for p in itertools.permutations(("a", "b", "c"))]


def test_oracle_equivalence_exhaustive_small():
    # every election with at most 3 candidates and at most 3 voters
    for size in (1, 2, 3):
        candidates = tuple("abc"[:size])
        orders = [PreferenceOrder(p) for p in itertools.permutations(candidates)]
        for voters in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(orders, voters):
                e = Election(candidates, VoterProfile.from_orders(combo))
                for name in candidates:
                    t = triple(e, name)
                    assert score_exact(t).score == score_oracle(t, 20)


@given(st.lists(st.sampled_from(_ORDERS3), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_random(orders):
    e = Election(("a", "b", "c"), VoterProfile.from_orders(orders))
    for name in "abc":
        t = triple(e, name)
        assert score_exact(t).score == score_oracle(t, 20)


# --- witnesses -------------------------------------------------------------------


@given(st.lists(st.sampled_from(_ORDERS3), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_witness_realizes_the_score(orders):
    e = Election(("a", "b", "c"), VoterProfile.from_orders(orders))
    for name in "abc":
        t = triple(e, name)
        result = score_exact(t)
        assert sum(result.witness) == result.score
        assert condorcet_winner(apply_raises(t, result.witness)) == name
        assert result.score <= e.n * (len(e.candidates) - 1)


def test_apply_raises_rejects_a_wrong_length(cycle):
    with pytest.raises(ValueError, match="expected 3 raise entries, got 2"):
        apply_raises(triple(cycle, "c"), (0, 1))


def test_witness_is_deterministic(cycle):
    t = triple(cycle, "c")
    first, second = score_exact(t), score_exact(t)
    assert first == second
    # both (0,1,0) and (0,0,1) cost one switch; the lexicographically
    # smallest raises vector keeps the earlier voter at zero
    assert first.witness == (0, 0, 1)


def _grouped_profiles() -> list[Election]:
    """Seeded 3- and 4-candidate profiles of runs of identical voters, with
    one order repeated in two groups that are not adjacent."""
    from dodgson.verify import trial_rng

    elections = [election("a b c", "a<b<c", "b<c<a", "a<b<c", mults=[2, 1, 2])]
    for i in range(12):
        rng = trial_rng(7, "grouped", i)
        names = tuple("abcd"[: 3 + i % 2])
        first, middle = (tuple(rng.sample(names, len(names))) for _ in range(2))
        # four candidates allow fewer copies, to keep the brute force small
        top = 4 if len(names) == 3 else 3
        mults = [rng.randint(2, top), rng.randint(1, 2), rng.randint(2, top)]
        groups = tuple(
            (PreferenceOrder(order), mult) for order, mult in zip((first, middle, first), mults)
        )
        elections.append(Election(names, VoterProfile(groups)))
    return elections


def test_memo_cap_does_not_change_answers():
    # state_cap=1 lets the search remember a single failed state; the memo
    # only prunes, so scores and lexicographically least witnesses must not
    # depend on its size
    from dodgson.verify import random_election, trial_rng

    elections = _grouped_profiles()
    for i in range(25):
        rng = trial_rng(99, "dp-vs-bnb", i)
        size = rng.randint(2, 4)
        elections.append(random_election(rng, tuple("abcd"[:size]), rng.choice([1, 3, 5])))
    for e in elections:
        for name in e.candidates:
            t = triple(e, name)
            assert score_exact(t) == score_exact(t, state_cap=1)


def _brute_force_score_and_witness(t: DodgsonTriple) -> tuple[int, tuple[int, ...]]:
    """Least (cost, raises vector) over every raise vector that makes the
    designated candidate the Condorcet winner."""
    room = [len(o.ranking) - 1 - o.position(t.designated) for o in t.election.profile.orders()]
    candidates = sorted(
        (sum(raises), raises) for raises in itertools.product(*(range(r + 1) for r in room))
    )
    return next(
        (cost, raises)
        for cost, raises in candidates
        if condorcet_winner(apply_raises(t, raises)) == t.designated
    )


def test_witness_is_lexicographically_least_by_brute_force():
    from dodgson.verify import random_election, trial_rng

    elections = [
        Election(("a", "b", "c"), VoterProfile.from_orders(orders))
        for voters in (1, 2, 3)
        for orders in itertools.product(_ORDERS3, repeat=voters)
    ]
    for i in range(20):
        elections.append(random_election(trial_rng(5, "brute-witness", i), tuple("abcd"), 4))
    elections.extend(_grouped_profiles())
    for e in elections:
        for name in e.candidates:
            t = triple(e, name)
            result = score_exact(t)
            assert (result.score, result.witness) == _brute_force_score_and_witness(t)


def test_zero_law(cycle, unanimous):
    assert score_exact(triple(unanimous, "c")).score == 0
    for name in "abc":
        assert score_exact(triple(cycle, name)).score > 0


# --- winners and rankings -----------------------------------------------------------


def test_cycle_three_way_winner_tie(cycle):
    for name in "abc":
        assert is_winner(triple(cycle, name))


def test_unanimous_winner(unanimous):
    assert is_winner(triple(unanimous, "c"))
    assert not is_winner(triple(unanimous, "a"))


def test_ranks_at_least(cycle, unanimous):
    assert ranks_at_least(cycle, "a", "b")
    assert ranks_at_least(unanimous, "c", "a")
    assert not ranks_at_least(unanimous, "a", "c")
    assert ranks_at_least(unanimous, "c", "c")  # reflexive tie
    with pytest.raises(ValueError, match="unknown"):
        ranks_at_least(unanimous, "z", "a")


def test_two_election_ranking_chains():
    # chains designate "1" on both sides, so one side is renamed to keep the
    # designated candidates distinct as the instance definition requires
    t2 = unit_chain(2)
    t3 = DodgsonTriple(election("u1 u2 u3 u4", "u1<u2<u3<u4"), "u1")
    assert two_election_ranking(t2, t3)
    assert not two_election_ranking(t3, t2)


def test_two_election_ranking_tie_and_cycle(cycle):
    renamed = election("z y", "z<y")
    assert two_election_ranking(DodgsonTriple(renamed, "z"), unit_chain(1))
    assert two_election_ranking(triple(cycle, "c"), unit_chain(1))  # 1 <= 1


def test_two_election_ranking_validation(cycle):
    even = election("a b", "a<b", "b<a")
    with pytest.raises(ValueError, match="odd"):
        two_election_ranking(DodgsonTriple(even, "a"), unit_chain(1))
    with pytest.raises(ValueError, match="differ"):
        two_election_ranking(triple(cycle, "a"), triple(cycle, "a"))


# --- thousands of voters or dozens of candidates, under a time limit -----------------


def test_many_voter_cycle_scores_within_time():
    # 4,000 voters in four runs of 1,000 identical copies
    e = election("a b c d", "a<b<c<d", "b<c<d<a", "c<d<a<b", "d<a<b<c", mults=[1000] * 4)
    t = triple(e, "a")
    with time_limit(10):
        result = score_exact(t)
        assert result.score == 1002
        assert sum(result.witness) == 1002
        assert condorcet_winner(apply_raises(t, result.witness)) == "a"
        assert score_decision(t, 1002) is True
        assert score_decision(t, 1001) is False
        assert is_winner(t)


def test_merge_separator_scores_its_deficit_sum(cycle):
    # the separator's score meets the deficit-sum lower bound
    merged = merge(DodgsonTriple(election("x y", "x<y"), "x"), triple(cycle, "a")).election
    t = triple(merged, "t1")
    assert sum(deficit_vector(t).values()) == 168
    with time_limit(10):
        assert score_exact(t).score == 168


def _impartial_culture(m: int, n: int, seed: str, landslide: float) -> Election:
    """Seeded impartial-culture profile over the first ``m`` of a..f, grouped
    by order; a ``landslide`` share of the voters copies one seeded order."""
    names = tuple("abcdef"[:m])
    perms = list(itertools.permutations(names))
    rng = random.Random(seed)
    counts = [0] * len(perms)
    copies = int(n * landslide)
    counts[rng.randrange(len(perms))] += copies
    for _ in range(n - copies):
        counts[rng.randrange(len(perms))] += 1
    groups = tuple((PreferenceOrder(p), c) for p, c in zip(perms, counts) if c)
    return Election(names, VoterProfile(groups))


def test_six_candidates_score_their_deficit_sum_within_time():
    # 1,001 voters in 483 groups.  The score meets the deficit-sum bound, yet
    # a search with one layer per voter copy does not find it within 100 s
    # (reference from the Bartholdi-Tovey-Trick integer program).
    e = _impartial_culture(6, 1001, "crowd:2", 0.192)
    t = triple(e, "e")
    assert sum(deficit_vector(t).values()) == 283
    with time_limit(10):
        result = score_exact(t)
        assert result.score == 283
        assert sum(result.witness) == 283
        assert condorcet_winner(apply_raises(t, result.witness)) == "e"
        assert not is_winner(t)


def test_hundred_thousand_voters_score_within_time():
    # 100,001 voters over 4 candidates (reference from the Bartholdi-Tovey-
    # Trick integer program)
    e = _impartial_culture(4, 100_001, "crowd:19", 0.206)
    t = triple(e, "c")
    with time_limit(10):
        assert score_exact(t).score == 30438
        assert score_decision(t, 30438) is True
        assert score_decision(t, 30437) is False
        assert not is_winner(t)


# --- the 3DM specials: root bound = deficit sum = score --------------------------

# gadget-pool matchings over W = {w1, w2, w3}, X = {x1, x2, x3}, Y = {y1, y2, y3}
_MATCHINGS = {
    "3dm-1": "w1 x1 y1 / w1 x2 y3 / w1 x3 y1 / w2 x1 y1 / w2 x1 y3 / w2 x3 y1 / w2 x3 y3 / "
             "w3 x1 y2 / w3 x1 y3 / w3 x2 y1 / w3 x3 y3",
    "3dm-8": "w1 x1 y2 / w1 x2 y1 / w1 x2 y2 / w1 x3 y2 / w2 x1 y2 / w2 x1 y3 / w2 x3 y1 / "
             "w3 x1 y3 / w3 x2 y1 / w3 x2 y3 / w3 x3 y2 / w3 x3 y3",
    "3dm-10": "w1 x2 y3 / w1 x3 y1 / w1 x3 y2 / w1 x3 y3 / w2 x1 y3 / w3 x1 y1 / w3 x1 y3 / "
              "w3 x2 y2 / w3 x3 y1 / w3 x3 y2",
    "3dm-11": "w1 x1 y1 / w1 x1 y3 / w1 x2 y1 / w1 x2 y2 / w1 x3 y1 / w2 x2 y1 / w2 x3 y3 / "
              "w3 x2 y3 / w3 x3 y3",
}


_SPECIALS = [
    ("3dm-1", "s", 96), ("3dm-1", "t", 86), ("3dm-8", "s", 102),
    ("3dm-10", "s", 85), ("3dm-10", "t", 80), ("3dm-11", "s", 79),
]


def _special(item: str, name: str) -> DodgsonTriple:
    text = "W: w1 w2 w3\nX: x1 x2 x3\nY: y1 y2 y3\n" + _MATCHINGS[item].replace(" / ", "\n")
    return DodgsonTriple(reduce_3dm(parse_matching(text)).triple.election, name)


@pytest.mark.parametrize("item, name, score", _SPECIALS)
def test_3dm_specials_score_within_time(item, name, score):
    # Every cover at the score passes each opponent exactly its deficit with
    # no wasted switch, and the lexicographic search meets such a cover late
    # (3dm-8 s took 157 s before the zero-slack check).  References from the
    # Bartholdi-Tovey-Trick integer program.
    t = _special(item, name)
    assert sum(deficit_vector(t).values()) == score
    with time_limit(10):
        result = score_exact(t)
    assert result.score == score == sum(result.witness)
    assert condorcet_winner(apply_raises(t, result.witness)) == name
    if (item, name) == ("3dm-8", "s"):
        assert result.witness == (0, 6, 0, 6, 0, 6, 0, 6, 0, 6, 0, 6, 0, 0, 0, 0, 0,
                                  11, 11, 11, 11, 11, 11)
    # with the memo holding one state the exact-fit check still closes frames
    with time_limit(10):
        assert score_exact(t, state_cap=1) == result


@pytest.mark.parametrize("item, name", [(item, name) for item, name, _ in _SPECIALS])
def test_exact_fit_runs_once_per_key(monkeypatch, item, name):
    # A frame keeps its check's answer and the memo records a refuted key,
    # so no (search, layer, copies, residual) is checked twice.
    calls = []
    check = _CoverSearch.exact_fit

    def counted(search, layer, avail, state):
        calls.append((id(search), layer, avail, state))
        return check(search, layer, avail, state)

    monkeypatch.setattr(_CoverSearch, "exact_fit", counted)
    score_exact(_special(item, name))
    assert calls and len(calls) == len(set(calls))


def _exact_fit_by_brute_force(search, layer, avail, state) -> bool:
    """Does some waste-free allocation of the remaining copies pass every
    opponent x exactly state[x] times?  Each copy stops at any level it
    reaches at one switch per level."""
    groups = search.problem.groups
    g, j = search.layers[layer]
    runs = [(groups[g], j - 1, avail)] + [(grp, 0, grp.mult) for grp in groups[g + 1:]]
    picks = []
    for grp, base, copies in runs:
        top = base
        while top + 1 < len(grp.costs) and grp.costs[top + 1] - grp.costs[base] == top + 1 - base:
            top += 1
        picks.append(itertools.combinations_with_replacement(range(base, top + 1), copies))
    for pick in itertools.product(*picks):
        passes = [0] * len(state)
        for (grp, base, _), tops in zip(runs, pick):
            for top in tops:
                for x in grp.coords[base:top]:
                    passes[x] += 1
        if tuple(passes) == state:
            return True
    return False


def _states_after_two_layers(search):
    """The root, then every (layer, copies, residual) reached by fixing the
    count of the first one or two layers."""
    layers, groups = search.layers, search.problem.groups
    frontier = [(*search.entry[0], search.problem.start)]
    states = list(frontier)
    for _ in range(2):
        reached = []
        for layer, avail, state in frontier:
            g, j = layers[layer]
            coords = groups[g].coords
            x = coords[j - 1]
            for count in range(avail + 1):
                nstate = state[:x] + (state[x] - min(count, state[x]),) + state[x + 1:]
                going_on = count and j < len(coords)
                nlayer, navail = (layer + 1, count) if going_on else search.entry[g + 1]
                if nlayer < len(layers) and any(nstate):
                    reached.append((nlayer, navail, nstate))
        states += reached
        frontier = reached
    return states


def test_exact_fit_matches_brute_force():
    # Seeded grouped profiles with 3-5 candidates and 6 voters in runs of
    # 1-3 copies, at the root and at interior states.
    seen = {True: 0, False: 0}
    for i in range(60):
        rng = random.Random(f"exact-fit:{i}")
        names = tuple("abcde"[: rng.randint(3, 5)])
        mults = []
        while sum(mults) < 6:
            mults.append(rng.randint(1, min(3, 6 - sum(mults))))
        groups = tuple((PreferenceOrder(tuple(rng.sample(names, len(names)))), m) for m in mults)
        e = Election(names, VoterProfile(groups))
        for name in names:
            problem = _cover_problem(triple(e, name))
            if not problem.coords:
                continue
            search = _CoverSearch(problem, 10)
            for layer, avail, state in _states_after_two_layers(search):
                want = _exact_fit_by_brute_force(search, layer, avail, state)
                assert search.exact_fit(layer, avail, state) == want, (i, name, layer, state)
                seen[want] += 1
    assert min(seen.values()) >= 300, seen
