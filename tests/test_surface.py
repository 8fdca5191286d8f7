"""The package API: each name is stated once, in its module's ``__all__``."""

import importlib

import dodgson

SUBMODULES = ("elections", "scoring", "matching", "gadgets")

PUBLIC = {
    "Election", "PreferenceOrder", "VoterProfile", "DodgsonTriple", "TwoERInstance",
    "ParseError", "condorcet_winner", "deficit_vector", "parse_election",
    "serialize_election",
    "ScoreResult", "score_exact", "score_decision", "score_oracle", "all_scores",
    "is_winner", "ranks_at_least", "two_election_ranking", "apply_raises",
    "MatchingInstance", "CANONICAL_YES", "CANONICAL_NO", "has_matching",
    "enumerate_instances", "parse_matching", "serialize_matching",
    "ReducedInstance", "RankingInstance", "Sentinel", "SENTINEL",
    "normalize_matching", "reduce_3dm", "unit_chain", "dodgson_sum",
    "parity_combine", "merge", "merge_prime", "reduce_2er_to_ranking",
    "reduce_2er_to_winner",
}


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC) == 39
    assert set(dodgson.__all__) == PUBLIC
    assert len(dodgson.__all__) == len(PUBLIC)


def test_star_import_binds_exactly_all():
    namespace = {}  # a name in __all__ that does not resolve raises here
    exec("from dodgson import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(dodgson.__all__)


def test_module_shares_are_disjoint():
    seen = {}
    for module_name in SUBMODULES:
        for name in importlib.import_module(f"dodgson.{module_name}").__all__:
            assert name not in seen, (name, seen.get(name), module_name)
            seen[name] = module_name
    assert set(seen) == PUBLIC


def test_shared_names_still_import_from_their_modules():
    from dodgson.elections import check_name, majority_threshold
    from dodgson.gadgets import build_merge, build_parity_combiner, build_reduction, build_sum
    from dodgson.scoring import DEFAULT_ORACLE_CAP

    assert check_name("a") == "a"
    assert majority_threshold(3) == 2
    assert DEFAULT_ORACLE_CAP == 20
    assert all(map(callable, (build_merge, build_parity_combiner, build_reduction, build_sum)))
