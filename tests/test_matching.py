import itertools
import pytest

from dodgson import (
    CANONICAL_NO,
    CANONICAL_YES,
    MatchingInstance,
    ParseError,
    enumerate_instances,
    has_matching,
    parse_matching,
    serialize_matching,
)

from conftest import assert_outcome


def test_canonical_instances():
    assert not has_matching(CANONICAL_NO)
    assert has_matching(CANONICAL_YES)


def test_single_triple_covers_q1():
    inst = MatchingInstance(("w",), ("x",), ("y",), (("w", "x", "y"),))
    assert has_matching(inst)


def test_empty_triple_set_has_no_matching():
    inst = MatchingInstance(("w",), ("x",), ("y",), ())
    assert not has_matching(inst)


def test_validation_rules():
    with pytest.raises(ValueError, match="disjoint"):
        MatchingInstance(("a",), ("a",), ("y",), ())
    with pytest.raises(ValueError, match="same number"):
        MatchingInstance(("w", "w2"), ("x",), ("y",), ())
    with pytest.raises(ValueError, match="non-empty"):
        MatchingInstance((), (), (), ())
    with pytest.raises(ValueError, match="not in W x X x Y"):
        MatchingInstance(("w",), ("x",), ("y",), (("x", "w", "y"),))


def test_triples_deduplicate_and_sort():
    inst = MatchingInstance(
        ("w2", "w1"), ("x1", "x2"), ("y1", "y2"),
        (("w2", "x1", "y1"), ("w1", "x1", "y1"), ("w2", "x1", "y1")),
    )
    assert inst.w_items == ("w1", "w2")
    assert inst.triples == (("w1", "x1", "y1"), ("w2", "x1", "y1"))


def test_enumeration_counts():
    assert len(list(enumerate_instances(1, (1, 1)))) == 1
    assert len(list(enumerate_instances(2, (2, 2)))) == 28
    singles = list(enumerate_instances(2, (1, 1)))
    assert len(singles) == 8
    assert not any(has_matching(inst) for inst in singles)


def test_enumeration_desk_scale_guard():
    with pytest.raises(ValueError, match="desk scale"):
        next(enumerate_instances(4, (1, 1)))


def test_matching_is_monotone_in_triples():
    universe = sorted(itertools.product(("w1", "w2"), ("x1", "x2"), ("y1", "y2")))
    for combo in itertools.combinations(universe, 2):
        base = MatchingInstance(("w1", "w2"), ("x1", "x2"), ("y1", "y2"), combo)
        if not has_matching(base):
            continue
        for extra in universe:
            grown = MatchingInstance(
                ("w1", "w2"), ("x1", "x2"), ("y1", "y2"), combo + (extra,)
            )
            assert has_matching(grown)


def test_q2_matching_means_two_coordinate_disjoint_triples():
    universe = sorted(itertools.product(("w1", "w2"), ("x1", "x2"), ("y1", "y2")))
    for m in (2, 3):
        for combo in itertools.combinations(universe, m):
            inst = MatchingInstance(("w1", "w2"), ("x1", "x2"), ("y1", "y2"), combo)
            directly = any(
                all(a[i] != b[i] for i in range(3))
                for a, b in itertools.combinations(combo, 2)
            )
            assert has_matching(inst) == directly


def _backtracking_matching(instance: MatchingInstance) -> bool:
    """Reference: give each W token in turn a triple whose X and Y tokens
    are still unused, backtracking on a dead end."""
    by_w = {w: [t for t in instance.triples if t[0] == w] for w in instance.w_items}
    used_x, used_y = set(), set()

    def cover(i: int) -> bool:
        if i == len(instance.w_items):
            return True
        for _, x, y in by_w[instance.w_items[i]]:
            if x in used_x or y in used_y:
                continue
            used_x.add(x)
            used_y.add(y)
            if cover(i + 1):
                return True
            used_x.discard(x)
            used_y.discard(y)
        return False

    return cover(0)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_matching_agrees_with_backtracking(q):
    from dodgson.verify import trial_rng

    tokens = tuple(tuple(f"{p}{i}" for i in range(1, q + 1)) for p in "wxy")
    universe = sorted(itertools.product(*tokens))
    found = set()
    for i in range(60):
        rng = trial_rng(29, f"3dm-q{q}", i)
        inst = MatchingInstance(*tokens, rng.sample(universe, rng.randint(0, min(5 * q, len(universe)))))
        found.add(has_matching(inst))
        assert has_matching(inst) == _backtracking_matching(inst), inst
    assert found == {False, True}


def test_parse_round_trip():
    text = serialize_matching(CANONICAL_YES)
    assert parse_matching(text) == CANONICAL_YES


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_matching("V: a\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_matching("W: w\nX: x\nY: y\nw x\n")
    with pytest.raises(ParseError, match="missing"):
        parse_matching("W: w\nX: x\n")


@pytest.mark.parametrize("build, expected", [
    (lambda: MatchingInstance(("w", "w"), ("x", "x2"), ("y", "y2"), ()),
     ValueError("duplicate token within ('w', 'w')")),
    (lambda: next(enumerate_instances(0, (1, 1))), ValueError("q must be positive, got 0")),
    (lambda: parse_matching("# a comment\nW: w\nX: x\nY: y\nw x y  # the triple\n").triples,
     (("w", "x", "y"),)),
    (lambda: parse_matching("W: w\nX:\nY: y\n"), ParseError("line 2: empty token list for X")),
    (lambda: parse_matching("W: w\nX: w\nY: y\n"), ParseError("W, X and Y must be disjoint")),
])
def test_validation_branches(build, expected):
    # each rule of the instance, the enumerator and the parser once; an
    # invalid parsed instance is a ParseError
    assert_outcome(build, expected)
