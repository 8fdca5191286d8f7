import pytest

from dodgson import (
    CANONICAL_NO,
    CANONICAL_YES,
    SENTINEL,
    DodgsonTriple,
    MatchingInstance,
    RankingInstance,
    ReducedInstance,
    Sentinel,
    TwoERInstance,
    dodgson_sum,
    has_matching,
    is_winner,
    merge,
    merge_prime,
    normalize_matching,
    parity_combine,
    ranks_at_least,
    reduce_2er_to_ranking,
    reduce_2er_to_winner,
    reduce_3dm,
    score_decision,
    score_exact,
    two_election_ranking,
    unit_chain,
)
from dodgson.gadgets import _fresh, build_merge, build_parity_combiner, build_reduction, build_sum
from dodgson.verify import RunConfig, merge_corpus, random_matching, random_triple, trial_rng

from conftest import assert_outcome, chain_triple, election, time_limit


# --- normalization -------------------------------------------------------------


def test_normalize_malformed_input():
    for junk in ("not an instance", 42, None, ["w", "x", "y"]):
        assert normalize_matching(junk) == CANONICAL_NO


def test_normalize_small_instances():
    tiny_yes = MatchingInstance(("w",), ("x",), ("y",), (("w", "x", "y"),))
    assert normalize_matching(tiny_yes) == CANONICAL_YES
    tiny_no = MatchingInstance(("w",), ("x",), ("y",), ())
    assert normalize_matching(tiny_no) == CANONICAL_NO


def test_normalize_is_identity_above_one_triple():
    inst = MatchingInstance(
        ("w1", "w2"), ("x1", "x2"), ("y1", "y2"),
        (("w1", "x1", "y1"), ("w1", "x2", "y1"), ("w2", "x2", "y2")),
    )
    assert normalize_matching(inst) is inst


def test_normalization_preserves_membership():
    for inst in (CANONICAL_YES, CANONICAL_NO,
                 MatchingInstance(("w",), ("x",), ("y",), (("w", "x", "y"),))):
        assert has_matching(normalize_matching(inst)) == has_matching(inst)


# --- matching reduction -----------------------------------------------------------


def test_reduction_shape_and_scores():
    yes = reduce_3dm(CANONICAL_YES)
    assert len(yes.triple.election.candidates) == 9
    assert yes.triple.election.n == 3
    assert yes.threshold == 6
    assert score_exact(yes.triple).score == 6

    no = reduce_3dm(CANONICAL_NO)
    assert no.threshold == 6
    assert score_exact(no.triple).score == 7


def test_reduction_scores_confirmed_by_bfs_oracle():
    # independent confirmation by the literal switch-by-switch search
    from dodgson import score_oracle

    yes = reduce_3dm(CANONICAL_YES)
    with time_limit(1):
        assert score_oracle(yes.triple, cap=6) == 6
    no = reduce_3dm(CANONICAL_NO)
    with time_limit(1):
        assert score_oracle(no.triple, cap=7) == 7


def test_reduction_voter_count_follows_triple_count():
    universe = [("w1", "x1", "y1"), ("w1", "x2", "y1"), ("w2", "x1", "y2"),
                ("w2", "x2", "y2"), ("w1", "x1", "y2")]
    inst = MatchingInstance(("w1", "w2"), ("x1", "x2"), ("y1", "y2"), tuple(universe))
    reduced = reduce_3dm(inst)
    assert reduced.triple.election.n == 2 * 5 - 1


def test_reduction_of_malformed_is_the_no_instance_image():
    assert reduce_3dm("garbage") == reduce_3dm(CANONICAL_NO)


def test_q3_yes_instance_scores_nine():
    diagonal = tuple((f"w{i}", f"x{i}", f"y{i}") for i in (1, 2, 3))
    inst = MatchingInstance(
        ("w1", "w2", "w3"), ("x1", "x2", "x3"), ("y1", "y2", "y3"), diagonal
    )
    assert has_matching(inst)
    reduced = reduce_3dm(inst)
    assert reduced.threshold == 9
    assert score_exact(reduced.triple).score == 9


def test_reduction_fresh_names_avoid_token_clashes():
    inst = MatchingInstance(("c", "c2"), ("s", "s2"), ("t", "t2"),
                            (("c", "s", "t"), ("c2", "s2", "t2")))
    reduced = reduce_3dm(inst)
    assert len(reduced.triple.election.candidates) == 9
    assert score_exact(reduced.triple).score == reduced.threshold


# --- score summation ----------------------------------------------------------------


def test_sum_of_one_preserves_score(cycle):
    part = DodgsonTriple(cycle, "a")
    assert score_exact(dodgson_sum([part])).score == score_exact(part).score


def test_sum_t1_t2():
    total, info = build_sum([unit_chain(1), unit_chain(2)])
    assert total.election.n == 3
    assert info["separators"]["s"] == 2 * 1 + 3 * 1
    assert score_exact(total).score == 3


def test_sum_three_chains():
    total = dodgson_sum([unit_chain(2)] * 3)
    assert total.election.n == 5
    assert score_exact(total).score == 6


def test_sum_rejects_even_voters_and_empty_lists():
    even = DodgsonTriple(election("a b", "a<b", "b<a"), "a")
    with pytest.raises(ValueError, match="odd"):
        dodgson_sum([even])
    with pytest.raises(ValueError):
        dodgson_sum([])


# --- unit chains ----------------------------------------------------------------------


def test_unit_chain_shape():
    t = unit_chain(1)
    assert t.election.candidates == ("1", "2")
    assert score_exact(t).score == 1
    assert not score_decision(t, 0)
    assert score_exact(unit_chain(5)).score == 5
    with pytest.raises(ValueError):
        unit_chain(0)


# --- merges ------------------------------------------------------------------------------


def test_merge_equal_chains():
    inst, info = build_merge(unit_chain(1), chain_triple("u1", "u2"))
    assert len(inst.election.candidates) == 20
    assert inst.election.n == 4
    assert info["separators"] == {"s": 8, "t": 8}
    assert score_exact(DodgsonTriple(inst.election, inst.first)).score == 2
    assert score_exact(DodgsonTriple(inst.election, inst.second)).score == 2


def test_merge_plus_one_and_winner():
    t1, t2 = unit_chain(1), chain_triple("u1", "u2", "u3")
    inst = merge(t1, t2)
    assert score_exact(DodgsonTriple(inst.election, inst.first)).score == 2
    assert score_exact(DodgsonTriple(inst.election, inst.second)).score == 3
    assert is_winner(merge_prime(t1, t2))


def test_merge_reversed_chain_pair_is_not_a_winner():
    t1, t2 = chain_triple("u1", "u2", "u3"), unit_chain(1)
    inst = merge(t1, t2)
    assert score_exact(DodgsonTriple(inst.election, inst.first)).score == 3
    assert score_exact(DodgsonTriple(inst.election, inst.second)).score == 2
    assert not is_winner(merge_prime(t1, t2))


def test_merge_swapped_inputs_track_roles():
    small = unit_chain(1)  # one voter, score 1
    big = DodgsonTriple(election("p q", "p<q", mults=[3]), "p")  # three voters, score 2
    inst, info = build_merge(small, big)  # second block larger: internal swap
    assert info["swapped"]
    assert score_exact(DodgsonTriple(inst.election, inst.first)).score == 1 + 1
    assert score_exact(DodgsonTriple(inst.election, inst.second)).score == 2 + 1


def test_merge_prime_tie_case():
    t = unit_chain(2)
    renamed = chain_triple("u1", "u2", "u3")  # same shape, disjoint names
    assert is_winner(merge_prime(t, renamed))


def test_merge_dominance_at_the_decision_level():
    t1, t2 = unit_chain(1), chain_triple("u1", "u2")
    inst = merge(t1, t2)
    budget = score_exact(DodgsonTriple(inst.election, inst.first)).score
    for other in inst.election.candidates:
        if other in (inst.first, inst.second):
            continue
        assert not score_decision(DodgsonTriple(inst.election, other), budget)


def test_merge_validation():
    even = DodgsonTriple(election("a b", "a<b", "b<a"), "a")
    with pytest.raises(ValueError, match="odd"):
        merge(even, unit_chain(1))
    with pytest.raises(ValueError, match="differ"):
        merge(unit_chain(1), unit_chain(2))  # both designate "1"


# --- parity combiner -------------------------------------------------------------------------


def test_parity_combiner_k1():
    in_2er = parity_combine([CANONICAL_YES, CANONICAL_NO])
    assert two_election_ranking(in_2er.left, in_2er.right)
    out_2er = parity_combine([CANONICAL_YES, CANONICAL_YES])
    assert not two_election_ranking(out_2er.left, out_2er.right)


def test_parity_combiner_rejects_odd_arity():
    with pytest.raises(ValueError):
        parity_combine([CANONICAL_YES])
    with pytest.raises(ValueError):
        parity_combine([])


# --- totalized reductions -----------------------------------------------------------------------


def test_ranking_reduction_round_trip():
    t1, t2 = unit_chain(1), chain_triple("u1", "u2", "u3")
    ranked = reduce_2er_to_ranking(TwoERInstance(t1, t2))
    assert isinstance(ranked, RankingInstance)
    assert ranks_at_least(ranked.election, ranked.first, ranked.second)
    flipped = reduce_2er_to_ranking((t2, t1))
    assert isinstance(flipped, RankingInstance)
    assert not ranks_at_least(flipped.election, flipped.first, flipped.second)


def test_winner_reduction_round_trip():
    t1, t2 = unit_chain(1), chain_triple("u1", "u2", "u3")
    won = reduce_2er_to_winner((t1, t2))
    assert isinstance(won, DodgsonTriple)
    assert is_winner(won)
    lost = reduce_2er_to_winner((t2, t1))
    assert isinstance(lost, DodgsonTriple)
    assert not is_winner(lost)


def test_malformed_inputs_map_to_the_sentinel():
    even = DodgsonTriple(election("a b", "a<b", "b<a"), "a")
    for junk in ("garbage", 99, None, (even, unit_chain(1)), (unit_chain(1), unit_chain(2))):
        assert isinstance(reduce_2er_to_ranking(junk), Sentinel)
        assert isinstance(reduce_2er_to_winner(junk), Sentinel)
    assert reduce_2er_to_ranking("junk") == SENTINEL


@pytest.mark.parametrize("build, expected", [
    (lambda: ReducedInstance(unit_chain(3), -1), ValueError("threshold must be non-negative")),
    (lambda: RankingInstance(unit_chain(3).election, "1", "z"),
     ValueError("candidate 'z' is not in the election")),
    (lambda: RankingInstance(unit_chain(3).election, "1", "1"),
     ValueError("ranking queries need two distinct candidates")),
    (lambda: _fresh("c", {"c", "c0"}), "c1"),
])
def test_validation_branches(build, expected):
    # each rule of the instance types once
    assert_outcome(build, expected)


def test_voter_groups_tile_the_profile():
    # the sidecar's spans: one per voter group of the built election, in
    # order, each as long as its group's multiplicity, together tiling 0..n
    built = []
    for t1, t2 in merge_corpus(RunConfig(seed=7, trials=40)):
        for first, second in ((t1, t2), (t2, t1)):
            instance, info = build_merge(first, second)
            built.append((instance.election, info))
    # inputs whose halves are equal build no normalizer-top group
    labels = [[span["label"] for span in info["voter_groups"]] for _, info in built]
    assert any("normalizer-top" in row for row in labels)
    assert any("normalizer-top" not in row for row in labels)
    for i in range(20):
        rng = trial_rng(7, "sum", i)
        parts = [random_triple(rng, tuple(f"{p}{j}" for j in range(1, 4)), max_candidates=3)
                 for p in "pqr"[: rng.randint(1, 3)]]
        for name in "cd":
            triple, info = build_sum(parts, name)
            built.append((triple.election, info))
    clash = MatchingInstance(("c", "c0"), ("s", "s0"), ("t", "t2"),
                             (("c", "s", "t"), ("c0", "s0", "t2")))
    matchings = [clash, "junk"]
    for i in range(30):
        rng = trial_rng(7, "reduce", i)
        q = rng.randint(1, 3)
        matchings.append(random_matching(rng, q, rng.randint(0, min(q ** 3, 3 * q))))
    for value in matchings:
        reduced, info = build_reduction(value)
        built.append((reduced.triple.election, info))
    for k in (1, 2):
        for yes in range(2 * k + 1):
            instance, info = build_parity_combiner([CANONICAL_YES] * yes + [CANONICAL_NO] * (2 * k - yes))
            built += [(instance.left.election, info["left"]), (instance.right.election, info["right"])]
    assert len(built) > 150
    for e, info in built:
        spans = info["voter_groups"]
        assert [span["start"] for span in spans] == [0] + [span["end"] for span in spans[:-1]]
        assert [span["end"] - span["start"] for span in spans] == [mult for _, mult in e.profile.groups]
        assert spans[-1]["end"] == e.n
