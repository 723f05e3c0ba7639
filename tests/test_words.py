import pytest
import hypothesis.strategies as st
from hypothesis import given

from soficert.words import (
    Word,
    free_reduce,
    identity,
    invert,
    multiply,
    parse_word,
)


@st.composite
def words(draw, rank=2, max_len=8):
    letters = draw(
        st.lists(
            st.integers(min_value=1, max_value=rank).flatmap(
                lambda i: st.sampled_from([i, -i])
            ),
            max_size=max_len,
        )
    )
    return free_reduce(letters, rank)


def test_parse_basic():
    assert parse_word("abA", 2).letters == (1, 2, -1)
    assert parse_word("", 2).letters == ()
    assert parse_word("1", 2).letters == ()
    assert parse_word("cC", 3).letters == ()


def test_parse_reduces():
    assert parse_word("aA", 2).is_identity
    assert parse_word("abBA", 2).is_identity
    assert parse_word("abBa", 2).text() == "aa"
    assert parse_word("baaAAb", 2).text() == "bb"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("a b", 2)
    with pytest.raises(ValueError):
        parse_word("c", 2)  # rank-2 alphabet is a, b only
    with pytest.raises(ValueError):
        parse_word("a1", 2)


def test_identity_prints_as_one():
    assert identity(2).text() == "1"
    assert parse_word("aA", 2).text() == "1"


def test_multiply_invert_frozen():
    u = parse_word("ab", 2)
    assert invert(u).text() == "BA"
    assert multiply(u, invert(u)).is_identity
    assert multiply(parse_word("ab", 2), parse_word("Ba", 2)).text() == "aa"
    a, b, BA = (parse_word(t, 2) for t in ("a", "b", "BA"))
    assert multiply(multiply(a, b), BA).is_identity


def test_rank_mismatch():
    with pytest.raises(ValueError):
        multiply(parse_word("a", 2), parse_word("a", 3))


def shortlex(w):
    """Length first, then letters with generators before inverses, ascending."""
    return len(w.letters), [(0, l) if l > 0 else (1, -l) for l in w.letters]


def test_shortlex_order():
    # positives ascend before negatives: a < b < A < B, and length dominates
    texts = ["b", "aa", "1", "A", "a", "B", "ab"]
    keyed = sorted((parse_word(t, 2) for t in texts), key=shortlex)
    assert [w.text() for w in keyed] == ["1", "a", "b", "A", "B", "aa", "ab"]


@given(words(), words())
def test_text_round_trip(u, v):
    w = multiply(u, v)
    assert parse_word(w.text(), 2) == w


@given(words(), words(), words())
def test_associative(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@given(words())
def test_group_axioms(u):
    assert multiply(u, invert(u)).is_identity
    assert multiply(invert(u), u).is_identity
    assert multiply(u, identity(2)) == u
    assert invert(invert(u)) == u


@given(words())
def test_reduction_idempotent(u):
    assert free_reduce(u.letters, 2) == u


def test_word_is_always_reduced():
    with pytest.raises(ValueError):
        Word((1, -1), 2)
    with pytest.raises(ValueError):
        Word((3,), 2)
