import itertools
import random
from math import inf

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
    is_winner,
    merge,
    merge_prime,
    parse_election,
    parse_matching,
    ranks_at_least,
    reduce_3dm,
    score_decision,
    score_exact,
    score_oracle,
    two_election_ranking,
    unit_chain,
)

from dodgson import scoring
from dodgson.scoring import _CoverSearch, _cover_problem, _dual_bound, _lp_weights

from conftest import election, impartial_culture, time_limit


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
    assert is_winner(triple(e, "solo"))


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


# --- the best-first oracle -------------------------------------------------------


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


def test_apply_raises_matches_the_per_voter_formula():
    # each voter raised on its own, then consecutive equal orders grouped
    from dodgson.verify import random_election, trial_rng

    elections = _grouped_profiles()
    for i in range(20):
        rng = trial_rng(29, "raises", i)
        elections.append(random_election(rng, tuple("abcde"[:rng.randint(1, 5)]), rng.randint(1, 9)))
    for e in elections:
        for name in e.candidates:
            t = triple(e, name)
            raises = score_exact(t).witness
            voters = [o.raised(name, step) for o, step in zip(e.profile.orders(), raises)]
            assert apply_raises(t, raises) == Election(e.candidates, VoterProfile.from_orders(voters))


def test_witness_replay_holds_nothing_per_voter():
    # 200,001 voters: the replay raises each run of equal voters and steps
    # once; per-voter orders took about 85 bytes a voter
    import tracemalloc

    t = triple(election("a b c", "a<b<c", "c<b<a", mults=[200_000, 1]), "a")
    raises = (0,) * 100_000 + (2,) * 100_000 + (0,)
    tracemalloc.start()
    try:
        assert condorcet_winner(apply_raises(t, raises)) == "a"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_witness_replay_on_the_parity_chain():
    # 2,900 candidates in 14 voter groups: the replay's Condorcet check
    # knocks out champions and checks the survivor; the all-pairs tally of
    # its 8.4 million counts took 20 s on 2 shared cores
    from dodgson import CANONICAL_NO, CANONICAL_YES, parity_combine, reduce_2er_to_winner

    t = reduce_2er_to_winner(parity_combine([CANONICAL_YES, CANONICAL_NO]))
    result = score_exact(t)
    assert result.score == 14
    with time_limit(2):
        assert condorcet_winner(apply_raises(t, result.witness)) == t.designated


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


def test_memo_cap_does_not_change_answers(monkeypatch):
    # the memo only prunes, so scores, lexicographically least witnesses and
    # decisions must not depend on its size: 0 turns it off, 1 keeps one state
    from dodgson.verify import random_election, trial_rng

    elections = _grouped_profiles()
    for i in range(25):
        rng = trial_rng(99, "dp-vs-bnb", i)
        size = rng.randint(2, 4)
        elections.append(random_election(rng, tuple("abcd"[:size]), rng.choice([1, 3, 5])))
    # 6-7 candidates and 9 voters: searches that store memo entries and reuse them
    for i in range(20):
        rng = trial_rng(99, "memo", i)
        elections.append(random_election(rng, tuple("abcdefg"[:rng.randint(6, 7)]), 9))
    cases = [triple(e, name) for e in elections for name in e.candidates]

    def answers(t):
        result = score_exact(t)
        budgets = [b for b in (result.score, result.score - 1) if b >= 0]
        return result, [score_decision(t, b) for b in budgets]

    want = [answers(t) for t in cases]
    for cap in (0, 1):
        monkeypatch.setattr(scoring, "_MEMO_CAP", cap)
        assert [answers(t) for t in cases] == want, cap


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


def _per_voter_decode(t: DodgsonTriple, score: int) -> tuple[int, ...]:
    """The witness decoded one entry per voter from the first cover at the
    score, later frames overwriting: a count frame at (g, j) sends its group's
    last ``option`` copies to level j, a single-copy frame its last copy to
    level ``option``."""
    raises = [0] * t.election.n
    if score:
        search = _CoverSearch(_cover_problem(t, deficit_vector(t)))
        for frame in search.cover(score):
            g, j = search.layers[frame[0]]
            grp = search.problem.groups[g]
            end, option = grp.flat + grp.mult, frame[5] - 1
            if frame[1] == 1:
                raises[end - 1] = grp.costs[option]
            else:
                raises[end - option:end] = [grp.costs[j]] * option
    return tuple(raises)


def test_runs_encode_the_witness():
    # score_exact reads the witness off its cover as runs of equal raises:
    # positive counts summing to n, no two equal neighbours, costing the
    # score, and expanding to the per-voter decode of the same cover
    elections = _grouped_profiles()
    elections += [impartial_culture(m, n, f"witness:{m}:{n}", 0.4)
                  for m, n in ((3, 21), (4, 45), (5, 101))]
    cases = [triple(e, name) for e in elections for name in e.candidates]
    cases += [_merge_separator(*_MERGE_2, name) for name in ("t1", "t3", "s12")]
    cases += [_special("3dm-8", "s")]
    crowd = impartial_culture(6, 1001, "crowd:2", 0.192)  # `c` scores 0
    cases += [triple(crowd, name) for name in crowd.candidates]
    zeros = 0
    for t in cases:
        result = score_exact(t)
        runs, n = result.runs, t.election.n
        assert all(k > 0 for _, k in runs), runs
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:])), runs
        assert sum(k for _, k in runs) == n
        assert sum(v * k for v, k in runs) == result.score
        assert tuple(v for v, k in runs for _ in range(k)) == result.witness
        assert result.witness == _per_voter_decode(t, result.score)
        if result.score == 0:
            zeros += 1
            assert runs == ((0, n),)
    assert zeros >= 2


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


def test_rivals_refuted_by_their_deficit_sum_build_nothing(monkeypatch):
    # is_winner on merge_prime instances builds a cover problem, and a search,
    # only for the designated candidate and for rivals whose deficit sum fits
    # within its score less one; every other rival is refuted by that sum.
    from dodgson import merge_prime
    from dodgson.verify import RunConfig, merge_corpus

    built, searched = [], []
    build, search = scoring._cover_problem, scoring._CoverSearch

    def counted(t, deficits):
        problem = build(t, deficits)
        built.append((t.designated, problem))
        return problem

    class CountedSearch(search):
        def __init__(self, problem):
            searched.append(problem)
            super().__init__(problem)

    monkeypatch.setattr(scoring, "_cover_problem", counted)
    monkeypatch.setattr(scoring, "_CoverSearch", CountedSearch)
    refuted = rivals_built = 0
    for seed in range(3):
        for t1, t2 in merge_corpus(RunConfig(seed=seed, trials=4)):
            t = merge_prime(t1, t2)
            e = t.election
            own = score_exact(t).score
            fits = {name for name in e.candidates if name != t.designated
                    and sum(deficit_vector(triple(e, name)).values()) <= own - 1}
            built.clear()
            searched.clear()
            is_winner(t)
            names = [name for name, _ in built]
            assert names[0] == t.designated and set(names[1:]) <= fits, (seed, names)
            assert all(any(p is q for _, q in built) for p in searched)
            refuted += len(e.candidates) - 1 - len(fits)
            rivals_built += len(names) - 1
    assert refuted >= 300 and rivals_built >= 1, (refuted, rivals_built)


def test_each_score_and_decision_counts_deficits_once(monkeypatch):
    calls = []
    count = scoring.deficit_vector
    monkeypatch.setattr(scoring, "deficit_vector", lambda t: calls.append(t) or count(t))
    t = _defect1_separator("s20")  # deficit sum 44, score 55
    for solve in (score_exact, lambda t: score_decision(t, 55), lambda t: score_decision(t, 54),
                  lambda t: score_decision(t, 43)):
        calls.clear()
        solve(t)
        assert calls == [t]


def test_is_winner_counts_only_its_own_deficits_when_every_rival_is_refuted(monkeypatch):
    # every rival's deficit sum exceeds the designated score less one, so the
    # early-exit sums refute them all and only the designated candidate's
    # deficit vector is ever counted
    from dodgson import merge_prime
    from dodgson.verify import RunConfig, merge_corpus

    t = merge_prime(*merge_corpus(RunConfig(seed=0, trials=4))[1])  # 41 candidates, score 3
    e = t.election
    own = score_exact(t).score
    assert all(sum(deficit_vector(triple(e, name)).values()) > own - 1
               for name in e.candidates if name != t.designated)
    calls = []
    count = scoring.deficit_vector
    monkeypatch.setattr(scoring, "deficit_vector", lambda t: calls.append(t) or count(t))
    assert is_winner(t)
    assert calls == [t]


def test_early_exit_deficit_sum_agrees_with_the_full_sum():
    # the rival check stops once its running sum passes the budget; around
    # each candidate's deficit sum s it must refute exactly the budgets below s
    from dodgson import merge_prime, parity_combine
    from dodgson.verify import RunConfig, merge_corpus, random_election, random_matching, trial_rng

    elections = _grouped_profiles()
    for i in range(20):
        rng = trial_rng(17, "deficit-sum", i)
        names = tuple("abcdefg"[: rng.randint(2, 7)])
        elections.append(random_election(rng, names, rng.choice([1, 2, 5, 9])))
    for seed in range(2):
        for t1, t2 in merge_corpus(RunConfig(seed=seed, trials=4)):
            elections.append(merge_prime(t1, t2).election)
    rng = trial_rng(5, "parity", 0)
    pair = parity_combine([random_matching(rng, 2, rng.randint(1, 4)) for _ in range(2)])
    elections += [pair.left.election, pair.right.election]
    checked = 0
    for e in elections:
        over = scoring._deficit_sum_over(e)
        for name in e.candidates:
            s = sum(deficit_vector(triple(e, name)).values())
            for budget in range(max(0, s - 1), s + 2):
                assert over(name, budget) == (s > budget), (e.candidates, name, budget)
                checked += 1
    assert checked > 1000, checked
    # the pair's sides have 11 and 15 voters: each side's rival is decided on
    # its own election
    assert pair.left.election.n != pair.right.election.n
    left, right = score_exact(pair.left).score, score_exact(pair.right).score
    assert two_election_ranking(pair.left, pair.right) == (left <= right)
    assert two_election_ranking(pair.right, pair.left) == (right <= left)


def test_is_winner_matches_the_argmin_of_all_scores():
    # every candidate of seeded merge_corpus pairs, their merge_prime outputs
    # and parity_combine outputs wins exactly when its score is least
    from dodgson import merge_prime, parity_combine
    from dodgson.verify import RunConfig, merge_corpus, random_matching, trial_rng

    elections = []
    for t1, t2 in merge_corpus(RunConfig(seed=0, trials=2)):
        elections += [t1.election, t2.election, merge_prime(t1, t2).election]
    rng = trial_rng(5, "parity", 0)
    pair = parity_combine([random_matching(rng, 2, rng.randint(1, 4)) for _ in range(2)])
    elections += [pair.left.election, pair.right.election]
    seen = {True: 0, False: 0}
    for e in elections:
        scores = all_scores(e)
        for name in e.candidates:
            won = is_winner(triple(e, name))
            assert won == (scores[name] == min(scores.values())), name
            seen[won] += 1
    assert min(seen.values()) >= 7, seen


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


def test_single_rival_decisions_build_no_rival_index(monkeypatch, cycle, unanimous):
    # ranks_at_least and two_election_ranking have one rival, and its
    # score_decision refutes it on its deficit sum: neither builds the index
    # is_winner builds for its many rivals
    from dodgson import parity_combine
    from dodgson.verify import random_matching, trial_rng

    rng = trial_rng(5, "parity", 0)
    pair = parity_combine([random_matching(rng, 2, rng.randint(1, 4)) for _ in range(2)])
    left, right = score_exact(pair.left).score, score_exact(pair.right).score

    def refused(election):
        raise AssertionError("built the rival index")

    monkeypatch.setattr(scoring, "_deficit_sum_over", refused)
    assert ranks_at_least(cycle, "a", "b") and ranks_at_least(unanimous, "c", "a")
    assert not ranks_at_least(unanimous, "a", "c")
    assert two_election_ranking(pair.left, pair.right) == (left <= right)
    assert two_election_ranking(pair.right, pair.left) == (right <= left)


# --- thousands of voters or dozens of candidates, under a time limit -----------------


@pytest.mark.parametrize("combo, want",
                         [("YN", True), ("YNNN", True), ("NN", False), ("YY", False)])
def test_parity_chain_winner_and_ranking_within_time(combo, want):
    # Wagner's parity combiner on canonical 3DM instances, then the winner and
    # ranking reductions: thousands of candidates (2,900 for two inputs,
    # 10,282 for four), nearly all fillers refuted by their deficit sums.
    # Counting each rival's full deficit vector took is_winner 9-10 s and
    # 139-202 s on the two true cases.
    from dodgson import (
        CANONICAL_NO, CANONICAL_YES, parity_combine, reduce_2er_to_ranking, reduce_2er_to_winner,
    )

    pair = parity_combine([CANONICAL_YES if c == "Y" else CANONICAL_NO for c in combo])
    winner = reduce_2er_to_winner(pair)
    ranking = reduce_2er_to_ranking(pair)
    with time_limit(5):
        assert is_winner(winner) is want
        assert ranks_at_least(ranking.election, ranking.first, ranking.second) is want


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


def test_six_candidates_score_their_deficit_sum_within_time():
    # 1,001 voters in 483 groups.  The score meets the deficit-sum bound, yet
    # a search with one layer per voter copy does not find it within 100 s
    # (reference from the Bartholdi-Tovey-Trick integer program).
    e = impartial_culture(6, 1001, "crowd:2", 0.192)
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
    e = impartial_culture(4, 100_001, "crowd:19", 0.206)
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
def test_3dm_specials_score_within_time(monkeypatch, item, name, score):
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
    monkeypatch.setattr(scoring, "_MEMO_CAP", 1)
    with time_limit(10):
        assert score_exact(t) == result


def _counting_exact_fit(monkeypatch) -> list:
    """Record the key of every exact-fit check: (search, layer, copies,
    residual, least option, most option, cap on a deeper count)."""
    calls = []
    check = _CoverSearch.exact_fit

    def counted(search, layer, avail, state, low=0, high=inf, cap=None):
        calls.append((id(search), layer, avail, state, low, high, cap))
        return check(search, layer, avail, state, low, high, cap)

    monkeypatch.setattr(_CoverSearch, "exact_fit", counted)
    return calls


@pytest.mark.parametrize("item, name", [(item, name) for item, name, _ in _SPECIALS])
def test_exact_fit_runs_once_per_key(monkeypatch, item, name):
    # A frame follows the cover its check found and the memo records a
    # refuted key, so no (search, layer, copies, residual, option range) is
    # checked twice.
    calls = _counting_exact_fit(monkeypatch)
    score_exact(_special(item, name))
    assert calls and len(calls) == len(set(calls))
    if (item, name) == ("3dm-8", "s"):
        # 180 checks before frames followed the covers found; now 27
        assert len(calls) < 60, len(calls)


def _exact_fit_by_brute_force(search, layer, avail, state, low=0, high=inf, cap=None) -> bool:
    """Does some waste-free allocation of the remaining copies pass every
    opponent x exactly state[x] times, with the option at ``layer`` in [low,
    high]?  Each copy stops at any level it reaches at one switch per level;
    the option is how many of this layer's copies rise at all, or with one
    copy the level it stops at.  With ``cap`` = (L, most), at most ``most`` of
    this layer's copies reach the level of layer L."""
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
        option = pick[0][0] if avail == 1 else sum(top >= j for top in pick[0])
        if not low <= option <= high:
            continue
        if cap and sum(top > j - 1 + cap[0] - layer for top in pick[0]) > cap[1]:
            continue
        passes = [0] * len(state)
        for (grp, base, _), tops in zip(runs, pick):
            for top in tops:
                for x in grp.coords[base:top]:
                    passes[x] += 1
        if tuple(passes) == state:
            return True
    return False


def _replay_exact_cover(search, layer, avail, state, cover) -> int:
    """Check that ``cover`` ({layer: copies reaching its level}) is an exact
    multicover from ``layer`` on: counts do not increase along a run, none
    exceeds its copies, it names only waste-free levels and it passes each
    opponent exactly its residual.  Returns its option at ``layer``."""
    groups = search.problem.groups
    g, j = search.layers[layer]
    runs = [(layer, avail, search.run_from(g, j))]
    runs += [(first, grp.mult, search.run_from(h, 1))
             for h, (grp, (first, _)) in enumerate(zip(groups, search.entry)) if h > g]
    passes = [0] * len(state)
    named = set()
    for first, copies, xs in runs:
        counts = [cover.get(first + i, 0) for i in range(len(xs))]
        named.update(range(first, first + len(xs)))
        assert all(a >= b for a, b in zip([copies] + counts, counts)), (cover, first, copies)
        for x, count in zip(xs, counts):
            passes[x] += count
    assert set(cover) <= named and all(cover.values()), cover
    assert tuple(passes) == state, (cover, passes, state)
    first_run = [cover.get(layer + i, 0) for i in range(len(runs[0][2]))]
    return j - 1 + sum(map(bool, first_run)) if avail == 1 else (first_run or [0])[0]


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
    # 1-3 copies, at the root and at interior states, over all options, over
    # a seeded range of them, and, where several copies share a run, with a
    # seeded cap on a deeper count of that run as well.  Every cover found
    # is replayed.
    seen = {True: 0, False: 0}
    seen_in_range = {True: 0, False: 0}
    seen_capped = {True: 0, False: 0}
    for i in range(60):
        rng = random.Random(f"exact-fit:{i}")
        names = tuple("abcde"[: rng.randint(3, 5)])
        mults = []
        while sum(mults) < 6:
            mults.append(rng.randint(1, min(3, 6 - sum(mults))))
        groups = tuple((PreferenceOrder(tuple(rng.sample(names, len(names)))), m) for m in mults)
        e = Election(names, VoterProfile(groups))
        for name in names:
            problem = _cover_problem(triple(e, name), deficit_vector(triple(e, name)))
            if not problem.start:
                continue
            search = _CoverSearch(problem)
            for layer, avail, state in _states_after_two_layers(search):
                g, j = search.layers[layer]
                first, last = (j - 1, len(problem.groups[g].coords)) if avail == 1 else (0, avail)
                low = rng.randint(first, last)
                high = rng.randint(low, last)
                cases = [((), seen), ((low, high), seen_in_range)]
                run = len(search.run_from(g, j))
                if avail > 1 and run > 1:
                    # its own stream, so the draws above stay as they were
                    deep = random.Random(f"exact-fit:{i}:{name}:{layer}:{avail}:{state}")
                    cap = (layer + deep.randint(1, run - 1), deep.randint(0, avail - 1))
                    cases.append(((low, high, cap), seen_capped))
                for limits, tally in cases:
                    want = _exact_fit_by_brute_force(search, layer, avail, state, *limits)
                    cover = search.exact_fit(layer, avail, state, *limits)
                    assert (cover is not None) == want, (i, name, layer, state, limits)
                    if cover is not None:
                        option = _replay_exact_cover(search, layer, avail, state, cover)
                        assert not limits or low <= option <= high, (cover, limits)
                        if len(limits) == 3:
                            assert cover.get(cap[0], 0) <= cap[1], (cover, limits)
                    tally[want] += 1
    assert min(seen.values()) >= 300, seen
    assert min(seen_in_range.values()) >= 300, seen_in_range
    assert min(seen_capped.values()) >= 100, seen_capped


# separators of merge_prime on pair 1 of merge_corpus(seed 3, 4 trials), 78
# candidates and 10 voters: score, which is the deficit sum, and the witness
# of the search before it followed exact covers
_PRIME_SEPARATORS = {
    "t1": (345, (38, 38, 38, 0, 0, 0, 0, 77, 77, 77)),
    "t2": (339, (37, 37, 37, 0, 0, 0, 0, 76, 76, 76)),
    "t5": (321, (34, 34, 34, 0, 0, 0, 0, 73, 73, 73)),
}


@pytest.mark.parametrize("name", sorted(_PRIME_SEPARATORS))
def test_zero_slack_separators_follow_the_cover(monkeypatch, name):
    # Every cover at the score is exact.  Searching again below frames whose
    # check had found a cover took 1.0-1.2 s and 210-230 checks each; following
    # the cover takes about 0.06 s and 12 checks.
    from dodgson.verify import RunConfig, merge_corpus

    t = DodgsonTriple(merge_prime(*merge_corpus(RunConfig(seed=3, trials=4))[1]).election, name)
    score, witness = _PRIME_SEPARATORS[name]
    assert sum(deficit_vector(t).values()) == score
    calls = _counting_exact_fit(monkeypatch)
    with time_limit(1):
        result = score_exact(t)
    assert (result.score, result.witness) == (score, witness)
    assert len(calls) < 30, len(calls)


def test_one_check_proves_a_run_of_equal_counts(monkeypatch):
    # A merge separator of the gadget pool (merge-5 `t12`, 54 candidates and
    # 8 voters) whose cover keeps both copies of one group rising together
    # through fifteen layers: one check with the deepest of those counts
    # capped below two refutes what took fifteen checks of [0, 1], 24 in all.
    t = _merge_separator("candidates: a1 a2 a3\n1: a2<a3<a1\n2: a3<a1<a2\n", "a1",
                         "candidates: z1 z2 z3\n1: z2<z1<z3\n", "z1", "t12")
    calls = _counting_exact_fit(monkeypatch)
    with time_limit(5):
        result = score_exact(t)
    assert result.score == 129 == sum(deficit_vector(t).values())
    assert result.witness == (15, 15, 15, 0, 0, 0, 42, 42)  # the least witness, as without the run proof
    assert len(calls) <= 12, len(calls)
    assert any(cap for *_, cap in calls), calls


# --- the Lagrangian bound and the LP rung of the ladder ----------------------------


def _lp_bound(t: DodgsonTriple) -> int:
    problem = _cover_problem(t, deficit_vector(t))
    return _dual_bound(problem, *_lp_weights(problem))


def test_dual_bound_is_admissible_for_any_weights():
    # ceil(L(Y)) is at most the brute-force score for every integer Y >= 0,
    # at any scale, and so is the LP bound
    from dodgson.verify import random_election, trial_rng

    checked = 0
    for i in range(40):
        rng = trial_rng(11, "dual-bound", i)
        size = rng.randint(3, 4)
        e = random_election(rng, tuple("abcd"[:size]), rng.choice([1, 2, 3]))
        for name in e.candidates:
            t = triple(e, name)
            problem = _cover_problem(t, deficit_vector(t))
            if not problem.start:
                continue
            score, _ = _brute_force_score_and_witness(t)
            for scale in (1, 3, 1 << 20):
                for _ in range(10):
                    y = [rng.randint(0, 4 * scale) for _ in problem.start]
                    assert _dual_bound(problem, y, scale) <= score, (i, name, y, scale)
                    checked += 1
            assert sum(problem.start) <= _lp_bound(t) <= score
    assert checked >= 1000


def _pass_costs(problem, x: int) -> list[int]:
    """The cost of passing opponent x, once per copy that can pass it."""
    return sorted(
        grp.costs[grp.coords.index(x) + 1]
        for grp in problem.groups if x in grp.coords
        for _ in range(grp.mult)
    )


def test_dual_bound_generalises_the_search_bounds():
    # On seeded cover problems: y = 1 gives the deficit sum, y = t e_x the
    # cost of x's r_x cheapest passes, and y = 1 + e_x the efficient-supply
    # bound r + r_x - F_x.  The LP weights do at least as well as all three.
    from dodgson.verify import random_election, trial_rng

    seen = 0
    for i in range(30):
        rng = trial_rng(13, "special-weights", i)
        e = random_election(rng, tuple("abcde"[: rng.randint(3, 5)]), rng.choice([3, 5, 7]))
        e = Election(e.candidates, VoterProfile.from_orders(list(e.profile.orders()) * 2))
        for name in e.candidates:
            problem = _cover_problem(triple(e, name), deficit_vector(triple(e, name)))
            if not problem.start:
                continue
            r = sum(problem.start)
            best = r
            assert _dual_bound(problem, [1] * len(problem.start)) == r
            for x, need in enumerate(problem.start):
                unit = [0] * len(problem.start)
                unit[x] = 1
                costs = _pass_costs(problem, x)
                cheapest = sum(costs[:need])
                assert _dual_bound(problem, [costs[need - 1] * u for u in unit]) == cheapest
                free = sum(
                    grp.mult for grp in problem.groups
                    for k, z in enumerate(grp.coords, start=1) if z == x and grp.costs[k] == k
                )
                supply = r + need - free
                assert _dual_bound(problem, [1 + u for u in unit]) == supply
                best = max(best, cheapest, supply)
                seen += 1
            assert _dual_bound(problem, *_lp_weights(problem)) >= best
    assert seen >= 100


def _merge_separator(t1: str, d1: str, t2: str, d2: str, name: str) -> DodgsonTriple:
    left = DodgsonTriple(parse_election(t1), d1)
    right = DodgsonTriple(parse_election(t2), d2)
    return DodgsonTriple(merge(left, right).election, name)


# merge inputs of the gadget pool, and separators whose score sits 8-21
# switches above the search's root bound but equals the LP bound
_MERGE_2 = ("candidates: a1 a2 a3\n1: a1<a2<a3\n1: a2<a1<a3\n1: a3<a1<a2\n", "a2",
            "candidates: z1 z2 z3\n1: z1<z3<z2\n1: z2<z1<z3\n1: z3<z1<z2\n", "z3")
_MERGE_7 = ("candidates: a1 a2 a3\n2: a1<a3<a2\n1: a2<a1<a3\n", "a2",
            "candidates: z1 z2 z3\n2: z1<z2<z3\n1: z3<z2<z1\n", "z2")


def _defect1_separator(name: str) -> DodgsonTriple:
    return _merge_separator("candidates: a1 a2\n1: a2<a1\n", "a1",
                            "candidates: z1 z2 z3\n1: z1<z2<z3\n1: z2<z3<z1\n1: z3<z1<z2\n", "z1",
                            name)


_SEPARATORS = [
    (_MERGE_2, "s12", 121), (_MERGE_2, "s22", 91),
    (_MERGE_7, "s12", 122), (_MERGE_7, "s16", 110), (_MERGE_7, "s8", 134),
]


@pytest.mark.parametrize("pair, name, score", _SEPARATORS)
def test_merge_separators_score_within_time(pair, name, score):
    # Before the LP rung the ladder refuted every budget from the root bound
    # up, and these took 3.1-9.4 s each; now at most 0.9 s, most of it the
    # one budget refuted before the LP runs.  References from the Bartholdi-
    # Tovey-Trick integer program.
    t = _merge_separator(*pair, name)
    with time_limit(3):
        result = score_exact(t)
    assert result.score == score == sum(result.witness)
    assert condorcet_winner(apply_raises(t, result.witness)) == name
    assert _lp_bound(t) == score


def test_lp_runs_once_per_score_and_never_in_a_decision(monkeypatch):
    calls = []
    solve = scoring._lp_weights

    def counted(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(scoring, "_lp_weights", counted)
    t = _defect1_separator("s20")  # its ladder climbs from 44 to 55
    assert score_exact(t).score == 55
    assert len(calls) == 1
    assert score_decision(t, 55) and not score_decision(t, 54)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["s15", "s17", "s20", "s22"])
def test_lp_rung_keeps_the_witness(monkeypatch, name):
    # Defect-1 merge separators, whose ladders climb 7-14 rungs: the LP jump
    # skips only budgets below the score, so the score and the least witness
    # are those of the plain ladder (the LP weights zeroed bound nothing).
    t = _defect1_separator(name)
    assert _lp_bound(t) == score_exact(t).score
    jumped = score_exact(t)
    monkeypatch.setattr(scoring, "_lp_weights", lambda problem: ([0] * len(problem.start), 1))
    assert score_exact(t) == jumped


def _seeded_lp_problems() -> list[tuple[Election, DodgsonTriple]]:
    """Every candidate with a deficit of 120 seeded elections, 3-6 candidates
    and 5-21 voters; trials 66 `f` and 72 `e` end the LP on the pivot d = 2."""
    from dodgson.verify import random_election, trial_rng

    found = []
    for i in range(120):
        rng = trial_rng(5, "lp", i)
        names = tuple("abcdef"[: rng.randint(3, 6)])
        e = random_election(rng, names, rng.choice([5, 7, 9, 11, 15, 21]))
        found += [(e, triple(e, name)) for name in e.candidates
                  if sum(deficit_vector(triple(e, name)).values())]
    return found


def test_lp_divides_exactly_by_pivots_above_one():
    # The fraction-free tableau divides by the last pivot d on every pivot
    # after the first; a d >= 2 at the end means those divisions ran and the
    # weights are y / d.  Throughout, ceil(L(y / d)) lies between the deficit
    # sum and the score.
    divisors = []
    for _, t in _seeded_lp_problems():
        problem = _cover_problem(t, deficit_vector(t))
        y, d = _lp_weights(problem)
        assert min(y) >= 0 and d >= 1
        assert sum(problem.start) <= _dual_bound(problem, y, d) <= score_exact(t).score
        divisors.append(d)
    assert len(divisors) > 400 and max(divisors) >= 2
    # a later pivot reads the entry a pivot leaves in its own row and column,
    # d; left at the pivot instead, this bound drops to 5
    t = triple(parse_election(_PIVOT_ENTRY_READ_AGAIN), "g")
    assert _lp_bound(t) == score_exact(t).score == 6


_PIVOT_ENTRY_READ_AGAIN = """candidates: a b c d e f g
1: a<b<e<c<f<d<g
1: b<a<c<f<g<d<e
1: b<a<e<g<f<d<c
1: c<e<a<b<f<d<g
1: d<a<e<c<b<g<f
1: d<b<g<a<c<f<e
1: e<d<g<f<a<b<c
1: f<c<a<g<d<b<e
1: g<a<c<e<b<d<f
1: g<d<f<c<a<e<b
1: g<f<a<d<b<e<c
"""


def test_lp_bound_is_the_ceiling_of_the_lp_optimum():
    # ceil(L(y / d)) equals ceil(LP) from HiGHS on the relaxation of the
    # Bartholdi-Tovey-Trick program, built here from the raw voter orders: a
    # count per order and raise j >= 1 (cost j, passing the j candidates above),
    # at most the order's copies in all, covering each deficit.
    from math import ceil

    optimize = pytest.importorskip("scipy.optimize")
    checked = 0
    for e, t in _seeded_lp_problems():
        deficits = deficit_vector(t)
        opponents = sorted(name for name, need in deficits.items() if need)
        costs, cover, caps, per_order = [], [[] for _ in opponents], [], []
        for order, mult in e.profile.groups:
            above = order.ranking[order.position(t.designated) + 1:]
            caps.append(mult)
            per_order.append([0] * len(costs) + [1] * len(above))
            for j in range(1, len(above) + 1):
                costs.append(j)
                for row, name in zip(cover, opponents):
                    row.append(-1 if name in above[:j] else 0)
        rows = [row + [0] * (len(costs) - len(row)) for row in per_order] + cover
        result = optimize.linprog(costs, A_ub=rows, b_ub=caps + [-deficits[x] for x in opponents],
                                  method="highs")
        assert result.status == 0
        assert _lp_bound(t) == ceil(result.fun - 1e-6), (e.candidates, t.designated, result.fun)
        checked += 1
    assert checked > 400


def test_scoring_runs_on_integers_only():
    # Every answer is an exact integer with no tolerances, so scoring.py holds
    # no float constant, no true division and no call to float() or round();
    # the math.inf sentinels are names, not constants.
    import ast
    import inspect

    floats = []
    for node in ast.walk(ast.parse(inspect.getsource(scoring))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            floats.append((node.lineno, "float constant"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            floats.append((node.lineno, "true division"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            floats.append((node.lineno, f"{node.func.id}()"))
    assert not floats, floats


def test_scoring_imports_only_the_election_model():
    # the solver stands on the model alone: the 2ER pair rule lives in
    # elections.py, so scoring.py needs neither the gadgets nor matching
    import ast
    import inspect

    modules = set()
    for node in ast.walk(ast.parse(inspect.getsource(scoring))):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    package = {name for name in modules if name.startswith((".", "dodgson"))}
    assert package == {".elections"}, package


def _3dm_13_c() -> DodgsonTriple:
    text = ("W: w1 w2 w3\nX: x1 x2 x3\nY: y1 y2 y3\nw1 x1 y3\nw1 x2 y2\nw1 x3 y1\nw2 x1 y1\n"
            "w2 x1 y2\nw2 x1 y3\nw3 x1 y1\nw3 x1 y2\nw3 x2 y1\nw3 x3 y2\n")
    return DodgsonTriple(reduce_3dm(parse_matching(text)).triple.election, "c")


def test_ladder_climbs_past_a_loose_lp_bound(monkeypatch):
    # 3dm-13's `c`: the LP bound (9) is one below the score (10), so the
    # ladder may not stop at it.  Reference from the Bartholdi-Tovey-Trick
    # integer program.
    t = _3dm_13_c()
    assert _lp_bound(t) == 9
    result = score_exact(t)
    assert result.score == 10 == sum(result.witness)
    assert condorcet_winner(apply_raises(t, result.witness)) == "c"
    monkeypatch.setattr(scoring, "_MEMO_CAP", 1)
    assert score_exact(t) == result


@pytest.mark.parametrize("name, want", [("s2", [71, 72, 73]), ("s10", [47, 48, 65]),
                                        ("s20", [44, 45, 55]), ("3dm-13 c", [9, 10])])
def test_ladder_steps_by_one_then_jumps_to_the_lp(monkeypatch, name, want):
    # A failed budget tells the ladder only that the next one is worth trying;
    # after the second failure it jumps once to the LP bound, if that is
    # higher.  3dm-13's `c` finds its cover at the second budget.
    t = _3dm_13_c() if name == "3dm-13 c" else _defect1_separator(name)
    problem = _cover_problem(t, deficit_vector(t))
    search = _CoverSearch(problem)
    root = search.lower(*search.entry[0], problem.start)
    assert want == [root, root + 1, max(root + 2, _lp_bound(t))][:len(want)]
    budgets = []
    cover = _CoverSearch.cover

    def traced(search, budget):
        budgets.append(budget)
        return cover(search, budget)

    monkeypatch.setattr(_CoverSearch, "cover", traced)
    score_exact(t)
    assert budgets == want


def test_lp_on_hundreds_of_groups_is_quick():
    # 601 voters over 5 candidates in 595 runs of identical voters (120
    # distinct orders): the LP is built over distinct types, not groups.
    rng = random.Random("lp-five:0")
    names = tuple("abcde")
    orders = [PreferenceOrder(tuple(rng.sample(names, len(names)))) for _ in range(601)]
    e = Election(names, VoterProfile.from_orders(orders))
    assert len(e.profile.groups) == 595
    t = triple(e, "d")
    with time_limit(1):
        bound = _lp_bound(t)
    assert sum(deficit_vector(t).values()) <= bound <= score_exact(t).score == 24
