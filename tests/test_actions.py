import pytest
import hypothesis.strategies as st
from hypothesis import given

from soficert.actions import (
    MAX_NESTING,
    BiregularAction,
    CosetAction,
    RestrictedAction,
    act,
    action_from_json,
    action_to_json,
    canonical_point,
    element_invert,
    element_multiply,
)
from soficert.builder import contains, pairwise_differences, separation_targets
from soficert.stallings import core_graph
from soficert.words import identity, invert, multiply, parse_word


def w2(t):
    return parse_word(t, 2)


COSET = CosetAction(2, (w2("a"),))
BIREG = BiregularAction(2)
CONJ = RestrictedAction(BIREG, ((w2("a"), w2("a")), (w2("b"), w2("b"))))


@st.composite
def words(draw, rank=2, max_len=6):
    alphabet = "abAB"[: 2 * rank]
    return parse_word(draw(st.text(alphabet=alphabet, max_size=max_len)), rank)


# ---------------------------------------------------------------------------
# canonical coset representatives


def test_canonical_point_frozen():
    assert canonical_point(COSET, w2("aab")).text() == "aab"
    assert canonical_point(COSET, w2("bA")).text() == "b"
    assert canonical_point(COSET, w2("ba")).text() == "b"
    assert canonical_point(COSET, w2("Ab")).text() == "Ab"
    assert canonical_point(COSET, w2("aaa")).text() == "1"


def shortlex(w):
    """Length first, then letters with generators before inverses, ascending."""
    return len(w.letters), [(0, l) if l > 0 else (1, -l) for l in w.letters]


def test_canonical_point_shortlex_oracle():
    # exhaustively check minimality over every word of length <= 4
    graph = core_graph([w2("a")], 2)
    frontier = [identity(2)]
    everything = [identity(2)]
    for _ in range(4):
        nxt = []
        for u in frontier:
            for l in (1, 2, -1, -2):
                v = multiply(u, parse_word("abAB"[{1: 0, 2: 1, -1: 2, -2: 3}[l]], 2))
                if len(v.letters) == len(u.letters) + 1:
                    nxt.append(v)
        frontier = nxt
        everything.extend(nxt)
    for target in everything:
        best = min(
            (c for c in everything if contains(graph, multiply(invert(c), target))),
            key=shortlex,
        )
        assert canonical_point(COSET, target) == best


@given(words(), words())
def test_canonical_equal_iff_same_coset(u, v):
    graph = core_graph([w2("a")], 2)
    same = contains(graph, multiply(invert(u), v))
    assert (canonical_point(COSET, u) == canonical_point(COSET, v)) == same


@given(words())
def test_canonical_idempotent(u):
    c = canonical_point(COSET, u)
    assert canonical_point(COSET, c) == c


# ---------------------------------------------------------------------------
# the three action kinds


def test_act_frozen():
    assert act(COSET, w2("b"), w2("")).text() == "b"
    assert act(COSET, w2("a"), w2("")).text() == "1"
    assert act(BIREG, (w2("a"), w2("b")), w2("")).text() == "aB"
    assert act(CONJ, w2("b"), w2("a")).text() == "baB"
    assert act(CONJ, w2("a"), w2("a")).text() == "a"


@given(words(), words(), words())
def test_action_axioms_coset(g, h, x):
    gh = multiply(g, h)
    assert act(COSET, g, act(COSET, h, x)) == act(COSET, gh, x)
    assert act(COSET, identity(2), x) == canonical_point(COSET, x)


@given(words(), words(), words())
def test_conjugation_is_diagonal_biregular(g, x, _):
    assert act(CONJ, g, x) == act(BIREG, (g, g), x)


def test_element_algebra():
    g = (w2("ab"), w2("b"))
    h = (w2("B"), w2("a"))
    assert element_multiply(g, h) == (w2("a"), w2("ba"))
    assert element_invert(g) == (w2("BA"), w2("B"))


# ---------------------------------------------------------------------------
# separation targets (the finite word sets a separator must respect)


def test_separation_targets_frozen():
    avoid, contain = separation_targets(COSET, [w2("a"), w2("b")], [w2(""), w2("b")])
    assert sorted(w.text() for w in avoid) == ["B", "b"]
    assert sorted(w.text() for w in contain) == ["1", "A"]

    trivial = CosetAction(2, ())
    avoid, contain = separation_targets(trivial, [w2("a")], [w2(""), w2("a")])
    assert sorted(w.text() for w in avoid) == ["A", "a"]


def test_separation_targets_duplicate_points():
    with pytest.raises(ValueError):
        separation_targets(COSET, [w2("a")], [w2(""), w2("aa")])


@given(st.lists(words(max_len=3), max_size=3), st.lists(words(max_len=3), min_size=1, max_size=3))
def test_separation_targets_postconditions(f_words, e_words):
    # external recheck of the two observations the builder relies on:
    # avoid-words are never in H, contain-words always are
    points = []
    for x in e_words:
        c = canonical_point(COSET, x)
        if all(c != p for p in points):
            points.append(c)
    avoid, contain = separation_targets(COSET, f_words, points)
    graph = COSET.graph
    for word in avoid:
        assert not contains(graph, word)
    for word in contain:
        assert contains(graph, word)


# ---------------------------------------------------------------------------
# JSON round trip


def test_action_json_round_trip():
    for spec in (COSET, BIREG, CONJ, CosetAction(3, (parse_word("abc", 3),))):
        assert action_from_json(action_to_json(spec)) == spec


def test_action_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        action_from_json({"kind": "regular", "rank": 2})


def nested(depth):
    """A coset action of F_1 wrapped in ``depth`` restricted levels."""
    action = {"kind": "coset", "rank": 1, "subgroup": ["aa"]}
    for _ in range(depth):
        action = {"kind": "restricted", "inner": action, "images": ["a"]}
    return action


def test_action_json_nesting_limit():
    spec = action_from_json(nested(MAX_NESTING))
    assert action_to_json(spec) == nested(MAX_NESTING)
    with pytest.raises(ValueError, match=f"deeper than {MAX_NESTING}"):
        action_from_json(nested(MAX_NESTING + 1))


def test_pairwise_differences_in_first_seen_order():
    points = [w2(t) for t in ("", "a", "ab")]
    assert [w.text() for w in pairwise_differences(points)] == ["a", "ab", "A", "b", "BA", "B"]
    # x^-1 y repeats across pairs (1, a) and (a, aa); it is listed once
    repeated = [w2(t) for t in ("", "a", "aa")]
    assert [w.text() for w in pairwise_differences(repeated)] == ["a", "aa", "A", "AA"]
    avoid, _ = separation_targets(COSET, [w2("a")], [w2(""), w2("b")])
    assert avoid == pairwise_differences([w2(""), w2("b")])
