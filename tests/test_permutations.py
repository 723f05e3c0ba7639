"""Group orders from the Schreier-Sims chain against the closure that
lists the group, refusal of over-cap groups before enumeration, and the
gather and set-cover forms of ``compose`` and ``is_permutation`` against
the plain Python they replaced."""

import pytest
import hypothesis.strategies as st
from hypothesis import given

import soficert.permutations as permutations
import soficert.quotients as quotients
from soficert.actions import CosetAction, canonical_point
from soficert.builder import StageError, approximate, pairwise_differences
from soficert.permutations import compose, identity_perm, is_permutation
from soficert.quotients import CoreTooLargeError, hall_completion, image_group, order_bound
from soficert.words import parse_word
from test_acceptance import FIXTURES

# the over-cap coset jobs of the roadmap: F = {a, b}, subgroup, E
STRETCH = [
    ([], ["1", "a", "b", "ab", "ba", "aa", "bb"]),
    (["abAB"], ["1", "a", "b", "ab", "aab"]),
    (["aabb"], ["1", "a", "b", "ab", "ba", "bb"]),
]


def separator(rank, sub, E):
    """The Hall separator the coset pipeline builds for (H, E), whatever F."""
    w = lambda t: parse_word(t, rank)
    spec = CosetAction(rank, tuple(w(t) for t in sub))
    points = [canonical_point(spec, w(t)) for t in E]
    return hall_completion(spec.graph, pairwise_differences(points))


def naive_order(gens, degree):
    """Size of the closure of the generators under composition."""
    first = identity_perm(degree)
    seen = {first}
    frontier = [first]
    while frontier:
        frontier = [v for v in {compose(p, u) for u in frontier for p in gens} if v not in seen]
        seen.update(frontier)
    return len(seen)


def test_chain_order_matches_closure_on_fixture_tables():
    for rank, sub, _, E in FIXTURES:
        table = separator(rank, sub, E)
        assert order_bound(table.images, table.size) == len(
            image_group(table.images, table.size)
        ), (rank, sub, E)


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return [tuple(p) for p in gens], degree


@given(generator_sets(), st.integers(1, 6000))
def test_chain_order_matches_naive_closure(gens_degree, cap):
    gens, degree = gens_degree
    order = naive_order(gens, degree)
    assert order_bound(gens, degree) == order
    # a capped chain stops at a lower bound, above the cap exactly when the order is
    bound = order_bound(gens, degree, cap)
    assert bound <= order
    assert (bound > cap) == (order > cap)


def test_cap_boundary_builds_at_order_and_refuses_below():
    rank, sub, F, E = 2, ["aba"], ["a", "b"], ["1", "a", "ab"]
    table = separator(rank, sub, E)
    order = order_bound(table.images, table.size)
    assert order == 360
    assert len(image_group(table.images, table.size, order)) == order
    with pytest.raises(CoreTooLargeError, match=r"exceeds cap 359 on 6 points \(order at least"):
        image_group(table.images, table.size, order - 1)

    # the cap bounds the group, not the carrier: the job builds on the 6
    # cosets of the table, its least rung, and is refused one below
    w = lambda t: parse_word(t, rank)
    job = (CosetAction(rank, (w("aba"),)), [w(t) for t in F], [w(t) for t in E])
    assert approximate(*job, core_cap=order).approx.size == 6
    with pytest.raises(StageError) as info:
        approximate(*job, core_cap=order - 1)
    assert info.value.stage == "finite_index_witness"


@pytest.mark.parametrize("sub,E", STRETCH)
def test_stretch_tables_refused_before_enumeration(monkeypatch, sub, E):
    table = separator(2, sub, E)
    calls = 0

    def counted(p, q):
        nonlocal calls
        calls += 1
        return compose(p, q)

    for module in (permutations, quotients):
        monkeypatch.setattr(module, "compose", counted)
    with pytest.raises(CoreTooLargeError) as info:
        image_group(table.images, table.size, 10**5)
    assert str(info.value).startswith(f"image group exceeds cap 100000 on {table.size} points")
    assert 0 < calls < 10**4


@pytest.mark.parametrize("degree", [0, 1, 2, None])
@given(data=st.data())
def test_compose_is_the_generator_expression(degree, data):
    # the gather needs its own cases at degrees 0 and 1, where itemgetter
    # cannot be built or returns a bare item; q need not be a permutation
    n = data.draw(st.integers(3, 60)) if degree is None else degree
    p = data.draw(st.permutations(range(n)))
    q = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) if n else []
    expected = tuple(p[x] for x in q)
    for left, right in ((tuple(p), tuple(q)), (list(p), q)):
        got = compose(left, right)
        assert type(got) is tuple and got == expected


def equal_entry(x):
    """An entry equal to index x that is not the int x: a bool or a float."""
    return bool(x) if x in (0, 1) else float(x)


@given(data=st.data())
def test_is_permutation_is_the_sorted_test(data):
    # n entries that cover range(n) are a permutation of it; drawn from a
    # permutation with entries swapped for equal bools and floats, then
    # perhaps given a duplicate, an out-of-range or negative entry, one
    # entry too few or one too many
    n = data.draw(st.integers(0, 6))
    p = data.draw(st.permutations(range(n)))
    p = [equal_entry(x) if data.draw(st.booleans()) else x for x in p]
    change = data.draw(st.sampled_from(["none", "duplicate", "out", "short", "long"]))
    if change == "duplicate" and n >= 2:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        p[i] = p[j]
    elif change == "out" and n:
        p[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([-1, n, n + 3, float(n), -0.5]))
    elif change == "short" and n:
        del p[data.draw(st.integers(0, n - 1))]
    elif change == "long":
        p.append(data.draw(st.one_of(st.integers(-1, n + 1), st.booleans())))
    expected = sorted(p) == list(range(n))
    assert is_permutation(p, n) == expected
    assert is_permutation(tuple(p), n) == expected


def test_is_permutation_edge_cases():
    assert is_permutation([], 0) and is_permutation((), 0)
    assert is_permutation([True, False], 2) and is_permutation([1.0, 0], 2)
    assert not is_permutation([0, 0], 2) and not is_permutation([-1, 0], 2)
    assert not is_permutation([0, 2], 2) and not is_permutation([0, 1, 2], 2)
    assert not is_permutation([0], 2) and not is_permutation([0], 0)
