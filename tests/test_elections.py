import itertools
import pytest
from hypothesis import given, strategies as st

from dodgson import (
    DodgsonTriple,
    Election,
    ParseError,
    PreferenceOrder,
    VoterProfile,
    condorcet_winner,
    deficit_vector,
    parse_election,
    serialize_election,
)

from conftest import assert_outcome, chain_triple, election, order


# --- parsing and serialization -----------------------------------------------


def test_parse_single_voter_round_trip():
    text = "candidates: a b c\n1: a<b<c\n"
    parsed = parse_election(text)
    assert parsed.candidates == ("a", "b", "c")
    assert parsed.profile.groups == ((order("a<b<c"), 1),)
    assert serialize_election(parsed) == text


def test_parse_multiplicity_sum():
    parsed = parse_election("candidates: a b c\n2: a<b<c\n1: c<b<a\n")
    assert parsed.n == 3


def test_parse_rejects_non_permutation():
    with pytest.raises(ParseError, match="not a permutation"):
        parse_election("candidates: a b\n1: a<a\n")


def test_parse_rejects_unknown_candidate():
    with pytest.raises(ParseError, match=r"line 2: unknown candidate 'z'"):
        parse_election("candidates: a b\n1: a<z\n")


def test_parse_rejects_bad_multiplicity():
    with pytest.raises(ParseError, match="line 2"):
        parse_election("candidates: a b\n0: a<b\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_election("candidates: a b\n-3: a<b\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_election("candidates: a b\nx: a<b\n")


def test_parse_rejects_missing_header_and_zero_voters():
    with pytest.raises(ParseError, match="header"):
        parse_election("1: a<b\n")
    with pytest.raises(ParseError, match="no voters"):
        parse_election("candidates: a b\n")


def test_parse_ignores_comments_and_blank_lines():
    parsed = parse_election("# intro\ncandidates: a b  # inline\n\n1: a<b\n# done\n")
    assert parsed.n == 1


def test_candidate_name_rules():
    for bad in ("a b", "a<b", "a#b", "a:b", ""):
        with pytest.raises(ValueError):
            Election((bad,), VoterProfile(((PreferenceOrder((bad,)), 1),)))



@pytest.mark.parametrize("build, expected", [
    (lambda: PreferenceOrder(()), ValueError("empty preference order")),
    (lambda: PreferenceOrder(("a", "b", "a")), ValueError("duplicate candidate in order 'a<b<a'")),
    (lambda: order("a<b<c").raised("b", 2),
     ValueError("cannot raise 'b' by 2: only 1 positions above it")),
    (lambda: order("a<b<c").raised("b", 0), order("a<b<c")),
    (lambda: VoterProfile(((order("a<b"), 0),)),
     ValueError("voter multiplicity must be positive, got 0")),
    (lambda: VoterProfile(()), ValueError("a profile needs at least one voter")),
    (lambda: Election((), VoterProfile(((order("a"), 1),))),
     ValueError("an election needs at least one candidate")),
    (lambda: Election(("a", "a"), VoterProfile(((order("a<b"), 1),))),
     ValueError("duplicate candidate 'a'")),
    (lambda: election("a b", "a<b", "b"),
     ValueError("order b is not a permutation of the candidate set")),
    (lambda: DodgsonTriple(election("a b", "a<b"), "z"),
     ValueError("designated candidate 'z' is not in the election")),
    (lambda: parse_election("candidates:\n1: a\n"), ParseError("line 1: empty candidate list")),
    (lambda: parse_election("candidates: a b<c\n"),
     ParseError("line 1: invalid candidate name 'b<c'")),
    (lambda: parse_election("candidates: a b a\n"), ParseError("line 1: duplicate candidate 'a'")),
    (lambda: parse_election("candidates: a b\n1 a<b\n"),
     ParseError("line 2: expected '<multiplicity>: <order>'")),
    (lambda: parse_election("# no header\n\n"), ParseError("missing 'candidates:' header")),
    (lambda: parse_election("candidates: a b\n0: a<b\n"),
     ParseError("line 2: multiplicity must be positive, got 0")),
    (lambda: parse_election("candidates: a b\n007: a<b\n").n, 7),
    (lambda: parse_election("candidates: a b\n\uff11: a<b\n"),
     ParseError("line 2: bad multiplicity '\uff11'")),
    (lambda: parse_election("candidates: a b\n\u0663: a<b\n"),
     ParseError("line 2: bad multiplicity '\u0663'")),
    (lambda: parse_election("candidates: a b c\n1_000: a<b<c\n+3: c<b<a\n"),
     ParseError("line 2: bad multiplicity '1_000'")),
    (lambda: parse_election("candidates: a b\n1: a<b\n+3: b<a\n"),
     ParseError("line 3: bad multiplicity '+3'")),
    (lambda: parse_election("candidates: a b\n-3: a<b\n"),
     ParseError("line 2: bad multiplicity '-3'")),
])
def test_validation_branches(build, expected):
    # each rule of the model and the parser once
    assert_outcome(build, expected)


_SMALL_ORDERS = st.permutations(["a", "b", "c"]).map(lambda p: PreferenceOrder(tuple(p)))


@given(st.lists(st.tuples(_SMALL_ORDERS, st.integers(1, 4)), min_size=1, max_size=4))
def test_serialize_parse_identity(groups):
    e = Election(("a", "b", "c"), VoterProfile(tuple(groups)))
    assert parse_election(serialize_election(e)) == e


# --- pairwise tallies and Condorcet winners -----------------------------------


def pairwise_tally(election: Election) -> dict[str, dict[str, int]]:
    """votes[a][b] = number of voters strictly preferring a to b (votes[a][a] = 0):
    the tally definition that ``condorcet_winner`` is checked against."""
    votes = {a: {b: 0 for b in election.candidates} for a in election.candidates}
    for order, mult in election.profile.groups:
        # combinations() yields (lower, higher); the higher entry is preferred
        for low, high in itertools.combinations(order.ranking, 2):
            votes[high][low] += mult
    return votes


def test_cycle_tally(cycle):
    votes = pairwise_tally(cycle)
    assert votes["b"]["a"] == 2
    assert votes["c"]["b"] == 2
    assert votes["a"]["c"] == 2


def test_unanimous_tally(unanimous):
    votes = pairwise_tally(unanimous)
    assert votes["c"]["b"] == votes["c"]["a"] == votes["b"]["a"] == 3


def test_two_candidate_tally():
    votes = pairwise_tally(election("a b", "a<b"))
    assert votes["b"]["a"] == 1
    assert votes["a"]["b"] == 0


@given(st.lists(_SMALL_ORDERS, min_size=1, max_size=5))
def test_tally_complement(orders):
    e = Election(("a", "b", "c"), VoterProfile.from_orders(orders))
    votes = pairwise_tally(e)
    for a, b in itertools.permutations("abc", 2):
        assert votes[a][b] + votes[b][a] == e.n
    for a in "abc":
        assert votes[a][a] == 0


def test_condorcet_winner_cases(cycle, unanimous):
    assert condorcet_winner(cycle) is None
    assert condorcet_winner(unanimous) == "c"
    assert condorcet_winner(election("a b", "a<b", "b<a")) is None  # exact tie
    assert condorcet_winner(election("solo", "solo")) == "solo"  # vacuous


def test_condorcet_winner_matches_the_tally_definition():
    # the knockout against the definition: the candidate whose every tally
    # entry reaches the majority threshold, on odd and even voter counts
    from dodgson.elections import majority_threshold
    from dodgson.verify import random_election, trial_rng

    for i in range(5000):
        rng = trial_rng(29, "condorcet", i)
        e = random_election(rng, tuple("abcdef"[:rng.randint(1, 6)]), rng.randint(1, 9))
        votes, need = pairwise_tally(e), majority_threshold(e.n)
        winners = [w for w in e.candidates
                   if all(votes[w][d] >= need for d in e.candidates if d != w)]
        assert condorcet_winner(e) == (winners[0] if winners else None), e


# --- deficits -------------------------------------------------------------------


def test_deficits_zero_iff_condorcet(unanimous):
    assert deficit_vector(DodgsonTriple(unanimous, "c")) == {"a": 0, "b": 0}


def test_cycle_deficits(cycle):
    assert deficit_vector(DodgsonTriple(cycle, "c")) == {"a": 1, "b": 0}


def test_chain_deficits():
    triple = chain_triple("1", "2", "3", "4")
    assert deficit_vector(triple) == {"2": 1, "3": 1, "4": 1}


@given(st.lists(_SMALL_ORDERS, min_size=1, max_size=5))
def test_deficits_agree_with_condorcet(orders):
    e = Election(("a", "b", "c"), VoterProfile.from_orders(orders))
    winner = condorcet_winner(e)
    for name in e.candidates:
        zeroed = all(v == 0 for v in deficit_vector(DodgsonTriple(e, name)).values())
        assert zeroed == (winner == name)
