"""Exact analysis of Dodgson elections.

Scores, winners and rankings under Lewis Carroll's 1876 voting rule, plus
deterministic election-gadget constructions (a matching reduction, score
summation, a parity combiner, and election merges) with empirical
verification harnesses for all of their contracts.
"""

from .elections import (
    DodgsonTriple,
    Election,
    ParseError,
    PreferenceOrder,
    VoterProfile,
    condorcet_winner,
    deficit_vector,
    pairwise_tally,
    parse_election,
    serialize_election,
)
from .gadgets import (
    SENTINEL,
    RankingInstance,
    ReducedInstance,
    Sentinel,
    TwoERInstance,
    dodgson_sum,
    merge,
    merge_prime,
    normalize_matching,
    parity_combine,
    reduce_2er_to_ranking,
    reduce_2er_to_winner,
    reduce_3dm,
    unit_chain,
)
from .matching import (
    CANONICAL_NO,
    CANONICAL_YES,
    MatchingInstance,
    enumerate_instances,
    has_matching,
    parse_matching,
    serialize_matching,
)
from .scoring import (
    ScoreResult,
    all_scores,
    apply_raises,
    is_winner,
    ranks_at_least,
    score_decision,
    score_exact,
    score_oracle,
    two_election_ranking,
)

__version__ = "0.1.0"

__all__ = [
    "Election",
    "PreferenceOrder",
    "VoterProfile",
    "DodgsonTriple",
    "ParseError",
    "condorcet_winner",
    "deficit_vector",
    "pairwise_tally",
    "parse_election",
    "serialize_election",
    "ScoreResult",
    "score_exact",
    "score_decision",
    "score_oracle",
    "all_scores",
    "is_winner",
    "ranks_at_least",
    "two_election_ranking",
    "apply_raises",
    "MatchingInstance",
    "CANONICAL_YES",
    "CANONICAL_NO",
    "has_matching",
    "enumerate_instances",
    "parse_matching",
    "serialize_matching",
    "ReducedInstance",
    "TwoERInstance",
    "RankingInstance",
    "Sentinel",
    "SENTINEL",
    "normalize_matching",
    "reduce_3dm",
    "unit_chain",
    "dodgson_sum",
    "parity_combine",
    "merge",
    "merge_prime",
    "reduce_2er_to_ranking",
    "reduce_2er_to_winner",
]
