import dataclasses

import pytest

from dodgson.elections import Election, VoterProfile
from dodgson.gadgets import TwoERInstance
from dodgson.scoring import ScoreResult
from dodgson.verify import (
    RunConfig,
    SUITE_NAMES,
    merge_corpus,
    random_election,
    random_triple,
    run_suite,
    trial_rng,
)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_passes_at_smoke_scale(suite):
    results = run_suite(suite, RunConfig(seed=3, trials=4))
    assert results
    for check in results:
        assert check.passed, f"{suite}/{check.name}: {check.detail}"
        assert check.checked > 0


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("5", RunConfig())


def test_trial_rngs_are_reproducible():
    a = trial_rng(9, "x", 2).random()
    b = trial_rng(9, "x", 2).random()
    c = trial_rng(9, "x", 3).random()
    assert a == b != c


def test_random_generators_are_deterministic():
    e1 = random_election(trial_rng(1, "e", 0), ("a", "b", "c"), 5)
    e2 = random_election(trial_rng(1, "e", 0), ("a", "b", "c"), 5)
    assert e1 == e2
    t1 = random_triple(trial_rng(1, "t", 0), ("a", "b", "c"), 3)
    t2 = random_triple(trial_rng(1, "t", 0), ("a", "b", "c"), 3)
    assert t1 == t2


def test_merge_corpus_respects_contract():
    for t1, t2 in merge_corpus(RunConfig(seed=5, trials=10)):
        assert t1.election.n % 2 == 1
        assert t2.election.n % 2 == 1
        assert t1.designated != t2.designated
        assert not set(t1.election.candidates) & set(t2.election.candidates)


def _wrong_separators(build_sum):
    def broken(parts):
        total, info = build_sum(parts)
        return total, dict(info, separators={"s": -1})
    return broken


def _one_voter_short(build_merge):
    def broken(t1, t2):
        instance, info = build_merge(t1, t2)
        orders = list(instance.election.profile.orders())[1:]
        short = Election(instance.election.candidates, VoterProfile.from_orders(orders))
        return dataclasses.replace(instance, election=short), info
    return broken


def _escaping(reduce_2er_to_winner):
    def broken(value):
        return reduce_2er_to_winner(value) if isinstance(value, TwoERInstance) else value
    return broken


def _always(value):
    return lambda *args, **kwargs: value


# suite, patched name, patch (given the original), failing property, its
# fixture names, and the checks every property of the suite reports
FORCED_FAILURES = {
    "3": ("3", "_check_gap",
          lambda _: lambda instance: (instance.q == 3, "forced failure"),
          "score-gap-exhaustive-q2", {"counterexample.3dm"},
          {"score-gap-exhaustive-q2": 1, "score-gap-random-q3": 2}),
    "4-shape": ("4", "build_sum", _wrong_separators,
                "sum-shape", {"counterexample-sum.dodg"},
                {"sum-additivity": 1, "sum-shape": 1}),
    "4-additivity": ("4", "score_exact", lambda _: _always(ScoreResult(1, ())),
                     "sum-additivity",
                     {"counterexample-input-1.dodg", "counterexample-input-2.dodg",
                      "counterexample-sum.dodg"},
                     {"sum-additivity": 2, "sum-shape": 2}),
    "6-dominance": ("6", "_rival_at_most", lambda _: _always("c"),
                    "merge-dominance",
                    {"counterexample-input-1.dodg", "counterexample-input-2.dodg"},
                    {"merge-plus-one": 1, "merge-dominance": 1, "merge-shape": 1}),
    "6-shape": ("6", "build_merge", _one_voter_short,
                "merge-shape",
                {"counterexample-input-1.dodg", "counterexample-input-2.dodg"},
                {"merge-plus-one": 1, "merge-dominance": 1, "merge-shape": 1}),
    "6-plus-one": ("6", "score_exact", lambda _: _always(ScoreResult(1, ())),
                   "merge-plus-one",
                   {"counterexample-input-1.dodg", "counterexample-input-2.dodg"},
                   {"merge-plus-one": 1, "merge-dominance": 1, "merge-shape": 1}),
    "wagner": ("wagner", "two_election_ranking", lambda _: _always(None),
               "parity-law", set(), {"parity-law": 1}),
    "theorems-ranking": ("theorems", "ranks_at_least", lambda _: _always(None),
                         "ranking-reduction",
                         {"counterexample-input-1.dodg", "counterexample-input-2.dodg"},
                         {"ranking-reduction": 1, "winner-reduction": 1, "sentinel-branch": 5}),
    "theorems-winner": ("theorems", "is_winner", lambda _: _always(None),
                        "winner-reduction",
                        {"counterexample-input-1.dodg", "counterexample-input-2.dodg"},
                        {"ranking-reduction": 1, "winner-reduction": 1, "sentinel-branch": 5}),
    "theorems-sentinel": ("theorems", "reduce_2er_to_winner", _escaping,
                          "sentinel-branch", set(),
                          {"ranking-reduction": 2, "winner-reduction": 2, "sentinel-branch": 1}),
}


def _check_forced_failure(forced, monkeypatch):
    # a wrong answer forced in one property: it alone fails, with its detail
    # and fixtures, and every property of its loop stops at the same case
    import dodgson.verify as verify_module

    suite, target, patch, failing, fixtures, checked = FORCED_FAILURES[forced]
    monkeypatch.setattr(verify_module, target, patch(getattr(verify_module, target)))
    results = run_suite(suite, RunConfig(seed=1, trials=2))
    assert {c.name: c.checked for c in results} == checked
    for check in results:
        if check.name == failing:
            assert not check.passed and check.detail
            assert set(check.fixtures) == fixtures
        else:
            assert check.passed and not check.detail and not check.fixtures


def test_failing_property_reports_a_counterexample(monkeypatch):
    _check_forced_failure("3", monkeypatch)


@pytest.mark.parametrize("forced", sorted(set(FORCED_FAILURES) - {"3"}))
def test_forced_failure_in_every_suite(forced, monkeypatch):
    _check_forced_failure(forced, monkeypatch)
