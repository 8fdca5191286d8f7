"""Election-gadget constructions: the matching reduction, score summation,
unit chains, the parity combiner, and the two election merges.

Every construction is a total, deterministic, polynomial-time transformation
on the data model.  Where source material leaves candidate order "arbitrary",
tails are fixed to canonical sorted order so outputs are byte-reproducible.
Renaming for disjointness uses block prefixes (``b1_``, ``b2_``, ...) with
fixed designated names ``c``/``d`` and separator families ``s*``/``t*``; the
origin of every renamed candidate is recorded in the construction info dict
that each ``build_*`` function returns alongside its result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .elections import (DodgsonTriple, Election, PreferenceOrder, TwoERInstance, VoterProfile,
                        _require_odd)
from .matching import CANONICAL_NO, CANONICAL_YES, MatchingInstance, has_matching

__all__ = [
    "ReducedInstance",
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


@dataclass(frozen=True)
class ReducedInstance:
    """A score-decision instance: triple plus the threshold its score is
    compared against.  Reduction outputs always have an odd voter count."""

    triple: DodgsonTriple
    threshold: int

    def __post_init__(self):
        _require_odd(self.triple, "a reduced instance")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")


@dataclass(frozen=True)
class RankingInstance:
    """A ranking query: does ``first`` tie-or-defeat ``second``?"""

    election: Election
    first: str
    second: str

    def __post_init__(self):
        for name in (self.first, self.second):
            if name not in self.election.candidates:
                raise ValueError(f"candidate {name!r} is not in the election")
        if self.first == self.second:
            raise ValueError("ranking queries need two distinct candidates")


@dataclass(frozen=True)
class Sentinel:
    """Reserved value that totalizing reductions map malformed inputs to.

    It is a distinct type, never a valid instance of any decision problem
    here, so membership checks reject it structurally.
    """


SENTINEL = Sentinel()


def _fresh(base: str, used: set[str]) -> str:
    """``base``, or ``base`` plus the least index that is not in ``used``;
    the name returned joins ``used``."""
    name, i = base, 0
    while name in used:
        name, i = f"{base}{i}", i + 1
    used.add(name)
    return name


def _profile(rows: Iterable[tuple[Sequence[str], int, str]]) -> tuple[VoterProfile, list[dict]]:
    """The voter groups of ``(names, multiplicity, label)`` rows, skipping
    rows of multiplicity 0, and each group's labelled span of flat voter
    indices (the sidecar's ``voter_groups``)."""
    groups: list[tuple[PreferenceOrder, int]] = []
    spans: list[dict] = []
    flat = 0
    for names, mult, label in rows:
        if mult > 0:
            groups.append((PreferenceOrder(tuple(names)), mult))
            spans.append({"label": label, "start": flat, "end": flat + mult})
            flat += mult
    return VoterProfile(tuple(groups)), spans


# --- matching reduction -----------------------------------------------------


def normalize_matching(value: object) -> MatchingInstance:
    """Totalize arbitrary input into an instance with more than one triple.

    Valid instances with more than one triple pass through unchanged; small
    valid instances collapse to the canonical yes/no instance matching their
    answer; anything else becomes the canonical no-instance.  Membership is
    preserved in every branch.
    """
    if isinstance(value, MatchingInstance):
        if len(value.triples) > 1:
            return value
        return CANONICAL_YES if has_matching(value) else CANONICAL_NO
    return CANONICAL_NO


def build_reduction(value: object) -> tuple[ReducedInstance, dict]:
    """Totalized matching reduction: normalize, then build the score gadget.

    The output's score equals the threshold (3q) exactly when the normalized
    instance has a matching, and threshold + 1 otherwise.
    """
    instance = normalize_matching(value)
    tokens = instance.tokens()
    used = set(tokens)
    c, s, t = (_fresh(base, used) for base in "cst")
    token_order = sorted(tokens)
    rows = []
    for i, (w, x, y) in enumerate(instance.triples, start=1):
        top, bottom = (s, t) if i % 2 else (t, s)
        rows.append(([top, c, w, x, y, bottom] + sorted(set(tokens) - {w, x, y}), 1, f"triple-{i}"))
    # one voter fewer than there are triples, all ranking c on top
    rows.append((sorted(token_order + [s, t]) + [c], len(instance.triples) - 1, "c-top"))
    profile, spans = _profile(rows)
    election = Election((c, s, t) + tuple(token_order), profile)
    threshold = 3 * instance.q
    reduced = ReducedInstance(DodgsonTriple(election, c), threshold)
    info = {
        "kind": "3dm",
        "designated": c,
        "specials": {"c": c, "s": s, "t": t},
        "threshold": threshold,
        "q": instance.q,
        "triple_count": len(instance.triples),
        "voter_groups": spans,
        "normalized": not (isinstance(value, MatchingInstance) and value == instance),
    }
    return reduced, info


def reduce_3dm(value: object) -> ReducedInstance:
    """Totalized reduction: normalize, then build the score gadget."""
    return build_reduction(value)[0]


# --- unit chains and score summation ----------------------------------------


def unit_chain(m: int) -> DodgsonTriple:
    """Single-voter election whose designated candidate scores exactly ``m``:
    candidates 1..m+1 ranked ascending with the designated candidate last."""
    if m < 1:
        raise ValueError(f"chain length must be positive, got {m}")
    names = tuple(str(i) for i in range(1, m + 2))
    election = Election(names, VoterProfile(((PreferenceOrder(names), 1),)))
    return DodgsonTriple(election, "1")


def _renamed_blocks(
    triples: Sequence[DodgsonTriple], names: Sequence[str]
) -> tuple[list[dict[str, str]], list[list[str]], dict[str, str]]:
    """Per-block rename maps (original -> fresh, and each designated
    candidate -> its entry of ``names``), the renamed non-designated
    candidates of each block in canonical order, and the combined origin map
    (fresh -> "block:original")."""
    maps: list[dict[str, str]] = []
    lists: list[list[str]] = []
    origins: dict[str, str] = {}
    for i, (triple, name) in enumerate(zip(triples, names), start=1):
        others = sorted(n for n in triple.election.candidates if n != triple.designated)
        rename = {orig: f"b{i}_{orig}" for orig in others}
        lists.append(list(rename.values()))
        for orig, fresh in rename.items():
            origins[fresh] = f"{i}:{orig}"
        rename[triple.designated] = name
        maps.append(rename)
    return maps, lists, origins


def build_sum(triples: Sequence[DodgsonTriple], name: str = "c") -> tuple[DodgsonTriple, dict]:
    """Combine odd-voter elections into one whose designated candidate's score
    is exactly the sum of the input scores.

    The designated candidates are unified as a single fresh candidate
    ``name``; every other candidate is a ``b{i}_*`` or an ``s{j}``.  The
    remaining candidate sets are made disjoint by block renaming, and a
    family of separator candidates plus normalizing voters isolates each
    block: ``name``'s standing against a block's candidates depends only on
    the voters simulating that block.
    """
    if not triples:
        raise ValueError("need at least one election to sum")
    for triple in triples:
        _require_odd(triple, "every summed election")
    maps, lists, origins = _renamed_blocks(triples, [name] * len(triples))
    sizes = [t.election.n for t in triples]
    total_n = sum(sizes)
    s_count = sum(len(t.election.candidates) * t.election.n for t in triples)
    s_list = [f"s{j}" for j in range(1, s_count + 1)]
    rows = []
    for i, (triple, rename) in enumerate(zip(triples, maps), start=1):
        prefix = s_list + [other for j, block in enumerate(lists, start=1) if j != i for other in block]
        rows += [(prefix + [rename[x] for x in order.ranking], mult, f"simulates-{i}")
                 for order, mult in triple.election.profile.groups]
    # Normalizing voters: block i sits above the separators for exactly
    # floor(n_i/2) + sum_{j != i} n_j of them and below c for the rest, which
    # pins c's standing against block i outside block i's own simulators.
    thresholds = [sizes[i] // 2 + (total_n - sizes[i]) for i in range(len(triples))]
    normalizers = (
        [other for i in range(len(triples)) if q > thresholds[i] for other in lists[i]]
        + [name] + s_list
        + [other for i in range(len(triples)) if q <= thresholds[i] for other in lists[i]]
        for q in range(1, total_n)
    )
    rows += [(order, len(list(run)), "normalizer") for order, run in itertools.groupby(normalizers)]
    profile, spans = _profile(rows)
    candidates = [name] + [other for block in lists for other in block] + s_list
    election = Election(tuple(candidates), profile)
    info = {
        "kind": "sum",
        "designated": name,
        "separators": {"s": s_count},
        "designated_origins": {str(i): t.designated for i, t in enumerate(triples, start=1)},
        "rename_map": origins,
        "voter_groups": spans,
        "blocks": len(triples),
    }
    return DodgsonTriple(election, name), info


def dodgson_sum(triples: Sequence[DodgsonTriple]) -> DodgsonTriple:
    """Score-additive combination of odd-voter elections."""
    return build_sum(triples)[0]


# --- parity combiner ---------------------------------------------------------


def build_parity_combiner(inputs: Sequence[object]) -> tuple[TwoERInstance, dict]:
    """Map an even-length input list to a score-comparison instance.

    Each input runs through the totalized matching reduction; odd-indexed
    outputs (1-based) are summed on the left, even-indexed on the right, and
    unit chains offset the thresholds so that, whenever the inputs are sorted
    with members first, the left score is at most the right score exactly
    when the number of members is odd.
    """
    if not inputs or len(inputs) % 2:
        raise ValueError(f"need a non-empty even-length input list, got {len(inputs)}")
    reduced = [build_reduction(value)[0] for value in inputs]
    thresholds = [r.threshold for r in reduced]
    left_chain, right_chain = 1 + sum(thresholds[1::2]), sum(thresholds[0::2])
    left, left_info = build_sum([r.triple for r in reduced[0::2]] + [unit_chain(left_chain)])
    right, right_info = build_sum([r.triple for r in reduced[1::2]] + [unit_chain(right_chain)], "d")
    instance = TwoERInstance(left, right)
    info = {
        "kind": "wagner-g",
        "thresholds": thresholds,
        "left_chain": left_chain,
        "right_chain": right_chain,
        "left": left_info,
        "right": right_info,
    }
    return instance, info


def parity_combine(inputs: Sequence[object]) -> TwoERInstance:
    return build_parity_combiner(inputs)[0]


# --- merges ------------------------------------------------------------------


def build_merge(t1: DodgsonTriple, t2: DodgsonTriple) -> tuple[RankingInstance, dict]:
    """Merge two odd-voter elections into one even-voter election in which
    each input's designated candidate scores exactly one more than it did in
    its own election (the +1 law).  Other candidates are not bound to score
    above both: in ``merge_corpus`` seed 920, trial 0, ``b2_z1`` scores 2
    against ``d``'s 3.  ``verify 6`` compares them with the first designated
    score only.

    The construction assumes the first block has at least as many voters;
    when it does not, the inputs are swapped internally and the output roles
    track the swap, so the returned ``first``/``second`` always correspond to
    ``t1``/``t2``.
    """
    TwoERInstance(t1, t2)  # validates the pair
    maps, lists, origins = _renamed_blocks([t1, t2], "cd")
    # per input: triple, designated name, rename map, block list, voter label;
    # the input with more voters plays the big role
    sides = list(zip((t1, t2), "cd", maps, lists, ("simulates-first", "simulates-second")))
    swapped = t1.election.n < t2.election.n
    if swapped:
        sides.reverse()
    big, big_name, big_rename, big_list, big_label = sides[0]
    small, small_name, small_rename, small_list, small_label = sides[1]
    v_count, w_count = big.election.n, small.election.n
    s_count = 2 * sum(len(t.election.candidates) * t.election.n for t in (t1, t2))
    s_list = [f"s{j}" for j in range(1, s_count + 1)]
    t_list = [f"t{j}" for j in range(1, s_count + 1)]
    big_prefix = [small_name] + s_list + small_list + t_list
    small_prefix = t_list + [big_name] + s_list + big_list
    rows = [(big_prefix + [big_rename[x] for x in order.ranking], mult, big_label)
            for order, mult in big.election.profile.groups]
    rows += [(small_prefix + [small_rename[x] for x in order.ranking], mult, small_label)
             for order, mult in small.election.profile.groups]
    half_v = (v_count + 1) // 2
    half_w = (w_count + 1) // 2
    blocks = t_list + big_list + small_list
    rows += [
        (small_prefix + small_list + [small_name], half_v - half_w, "normalizer-top"),
        (blocks + list(reversed(s_list)) + [big_name, small_name], half_v, "normalizer-big"),
        (blocks + s_list + [small_name, big_name], half_w, "normalizer-small"),
    ]
    profile, spans = _profile(rows)
    candidates = ["c"] + lists[0] + ["d"] + lists[1] + s_list + t_list
    election = Election(tuple(candidates), profile)
    instance = RankingInstance(election, "c", "d")
    info = {
        "kind": "merge",
        "first": "c",
        "second": "d",
        "designated_origins": {"first": t1.designated, "second": t2.designated},
        "separators": {"s": s_count, "t": s_count},
        "swapped": swapped,
        "rename_map": origins,
        "voter_groups": spans,
    }
    return instance, info


def merge(t1: DodgsonTriple, t2: DodgsonTriple) -> RankingInstance:
    """Merged election with both designated candidates distinguished."""
    return build_merge(t1, t2)[0]


def merge_prime(t1: DodgsonTriple, t2: DodgsonTriple) -> DodgsonTriple:
    """Same construction as :func:`merge`, designating only the first input's
    candidate — a winner-question instance."""
    instance = merge(t1, t2)
    return DodgsonTriple(instance.election, instance.first)


# --- totalized reductions to ranking / winner --------------------------------


def _coerce_2er(value: object) -> TwoERInstance | None:
    if isinstance(value, TwoERInstance):
        return value
    if isinstance(value, (tuple, list)) and len(value) == 2:
        left, right = value
        if isinstance(left, DodgsonTriple) and isinstance(right, DodgsonTriple):
            try:
                return TwoERInstance(left, right)
            except ValueError:
                return None
    return None


def reduce_2er_to_ranking(value: object) -> RankingInstance | Sentinel:
    """Total map into ranking instances; malformed inputs hit the sentinel."""
    instance = _coerce_2er(value)
    if instance is None:
        return SENTINEL
    return merge(instance.left, instance.right)


def reduce_2er_to_winner(value: object) -> DodgsonTriple | Sentinel:
    """Total map into winner instances; malformed inputs hit the sentinel."""
    instance = _coerce_2er(value)
    if instance is None:
        return SENTINEL
    return merge_prime(instance.left, instance.right)
