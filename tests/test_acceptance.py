"""Release-gating acceptance checks.

Every criterion is exact (integer equality, no tolerances).  Each test prints
one ``criterion N: PASS|FAIL`` line — run ``pytest tests/test_acceptance.py -s``
to see them — and fails the run if its checks do not hold.
"""

import itertools

from dodgson import (
    DodgsonTriple,
    Election,
    PreferenceOrder,
    VoterProfile,
    all_scores,
    condorcet_winner,
    is_winner,
    score_exact,
    score_oracle,
    unit_chain,
)
from dodgson.verify import RunConfig, random_election, run_suite, trial_rng

SEED = 7


def _report(number: int, label: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {number}: {status} - {label}")
    assert not problems, f"criterion {number} failed: {problems[:5]}"


def _suite_problems(suite: str, trials: int) -> list[str]:
    results = run_suite(suite, RunConfig(seed=SEED, trials=trials))
    return [f"{c.name}: {c.detail or 'failed'}" for c in results if not c.passed]


def test_criterion_1_oracle_equivalence():
    problems = []
    checked = 0
    orders = [PreferenceOrder(p) for p in itertools.permutations(("a", "b", "c"))]
    profile_count = 0
    for voters in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(orders, voters):
            profile_count += 1
            e = Election(("a", "b", "c"), VoterProfile.from_orders(combo))
            for name in "abc":
                t = DodgsonTriple(e, name)
                exact = score_exact(t).score
                oracle = score_oracle(t, cap=20)
                checked += 1
                if exact != oracle:
                    problems.append(f"{[str(o) for o in combo]} @{name}: {exact} vs {oracle}")
    if profile_count != 6 + 21 + 56:
        problems.append(f"expected 83 exhaustive profiles, saw {profile_count}")
    for i in range(200):
        rng = trial_rng(SEED, "oracle-4c5v", i)
        e = random_election(rng, ("a", "b", "c", "d"), 5)
        for name in "abcd":
            t = DodgsonTriple(e, name)
            exact = score_exact(t).score
            oracle = score_oracle(t, cap=20)
            checked += 1
            if exact != oracle:
                problems.append(f"random trial {i} @{name}: {exact} vs {oracle}")
    _report(1, f"score_exact == score_oracle on {checked} triples", problems)


def test_criterion_2_reduction_score_gap():
    problems = _suite_problems("3", trials=50)
    _report(2, "matching reduction: score gap 0 iff matching, else exactly 1 "
               "(154 exhaustive q=2 + 50 random q=3)", problems)


def test_criterion_3_sum_additivity():
    problems = _suite_problems("4", trials=100)
    _report(3, "score summation: exact additivity and (2*sum(n))-1 voters "
               "on 100 random lists", problems)


def test_criterion_4_merge_laws():
    problems = _suite_problems("6", trials=25)
    _report(4, "merge: both designated scores rise by exactly 1 and every other "
               "candidate scores above the first designated candidate, on 25 random "
               "pairs", problems)


def test_criterion_5_parity_law():
    problems = _suite_problems("wagner", trials=1)
    _report(5, "parity combiner: left <= right exactly when the number of "
               "member inputs is odd (k in {1,2}, all sorted combinations)", problems)


def test_criterion_6_end_to_end_reductions():
    problems = _suite_problems("theorems", trials=25)
    _report(6, "two-election comparisons map exactly onto ranking and winner "
               "instances; malformed inputs hit the sentinel", problems)


def test_criterion_7_fixed_values():
    problems = []
    for m in range(1, 9):
        score = score_exact(unit_chain(m)).score
        if score != m:
            problems.append(f"chain {m}: score {score}")
    cycle = Election(
        ("a", "b", "c"),
        VoterProfile.from_orders(
            [PreferenceOrder(tuple(text.split("<"))) for text in ("a<b<c", "b<c<a", "c<a<b")]
        ),
    )
    if condorcet_winner(cycle) is not None:
        problems.append("cycle has a Condorcet winner")
    scores = all_scores(cycle)
    if scores != {"a": 1, "b": 1, "c": 1}:
        problems.append(f"cycle scores {scores}")
    for name in "abc":
        if not is_winner(DodgsonTriple(cycle, name)):
            problems.append(f"{name} is not a winner of the cycle")
    _report(7, "unit chains score their length (m=1..8); the three-candidate "
               "cycle is a three-way tie of winners at score 1", problems)
