"""The closure that lists each element's witness row with its moves,
against the code it replaced.

The previous ``image_group`` and ``orbit_witness`` are kept below as
references, with the ``compose`` they called; the closure reference
steps over the given generators only and the witness reference walks
one orbit from the identity row at point 0, as the builder did since
every carrier is a finite group acting on itself.  The closure must
list the inverses of the reference's elements in the same order, and
each move row must be the generator composed after every element, so a
carrier's own breadth-first walk from point 0 meets its points in index
order.  ``finite_index_witness`` must then give the witness the walk
gave, at one label and on a one-label B too, where ``itemgetter``
cannot be used as a gather.  Both must do so on either side of the 256
points up to which the closure stores rows as bytes.  Building the
40 320-point aabb-f5 certificate must stay within a count of
compositions, and verifying it must make exactly the count that its
letters call for.
"""

import random
from collections import deque

import pytest
import hypothesis.strategies as st
from hypothesis import given

import soficert.builder as builder
import soficert.certificate as certificate
import soficert.permutations as permutations
import soficert.quotients as quotients
import soficert.verifier as verifier
from soficert.actions import CosetAction, act, canonical_point
from soficert.builder import approximate, finite_index_witness, separation_targets
from soficert.certificate import OrbitWitness
from soficert.permutations import compose, identity_perm, inverse
from soficert.quotients import (
    DEFAULT_CORE_CAP,
    CoreTooLargeError,
    hall_completion,
    image_group,
    left_coset_of,
    order_bound,
)
from soficert.verifier import verify_certificate
from soficert.words import invert, multiply, parse_word
from test_acceptance import FIXTURES

# ---------------------------------------------------------------------------
# the references


def _reference_image_group(generators, degree, cap=DEFAULT_CORE_CAP):
    order = order_bound(generators, degree, cap)
    if order > cap:
        raise CoreTooLargeError(
            f"image group exceeds cap {cap} on {degree} points (order at least {order})"
        )
    steps = list(generators)
    first = identity_perm(degree)
    seen = {first}
    elements = [first]
    queue = deque(elements)
    while queue:
        u = queue.popleft()
        for p in steps:
            v = compose(p, u)
            if v not in seen:
                seen.add(v)
                elements.append(v)
                queue.append(v)
    if len(elements) != order:
        raise AssertionError(f"closure has {len(elements)} elements, stabilizer chain {order}")
    return elements


def _reference_orbit_witness(images, b_images, labels):
    b_inverses = [inverse(p) for p in b_images]
    pi = [None] * len(images[0])
    row = identity_perm(len(b_images[0]))
    pi[0] = compose(row, labels)
    queue = deque([(0, row)])
    while queue:
        s, row = queue.popleft()
        for image, b_inverse in zip(images, b_inverses):
            u = image[s]
            if pi[u] is None:
                moved = compose(row, b_inverse)
                pi[u] = compose(moved, labels)
                queue.append((u, moved))
    return OrbitWitness(tuple(range(len(pi))), tuple(range(len(b_images[0]))), tuple(pi))


# ---------------------------------------------------------------------------
# the closure


def _dihedral(n):
    """A rotation and a reflection of n points, which generate a group of order 2n."""
    return [tuple((i + 1) % n for i in range(n)), tuple(-i % n for i in range(n))]


@pytest.mark.parametrize("degree", [0, 1, 2, None, 256, 257])
@given(data=st.data())
def test_closure_matches_reference_and_moves_are_products(degree, data):
    # degrees 0 and 1 are the trivial group; up to 256 points the closure
    # stores bytes and above it tuples, so the two largest degrees draw
    # from dihedral generators to keep the reference closure small
    n = data.draw(st.integers(3, 7)) if degree is None else degree
    perms = st.sampled_from(_dihedral(n)) if n > 7 else st.permutations(range(n))
    gens = [tuple(p) for p in data.draw(st.lists(perms, max_size=3))]
    group = image_group(gens, n)
    elements = _reference_image_group(gens, n)
    assert list(map(tuple, group.rows)) == [inverse(s) for s in elements]
    assert len(group) == order_bound(gens, n)
    assert len(group.moves) == len(gens)
    index = {s: i for i, s in enumerate(elements)}
    for gen, row in zip(gens, group.moves):
        assert list(row) == [index[compose(gen, u)] for u in elements]


def test_carrier_walk_meets_points_in_index_order():
    # the carrier is numbered by the closure under the maps phi(g_i), so
    # a breadth-first walk over phi's images from point 0, which is the
    # walk the previous witness routine made, reaches 0, 1, ..., |A| - 1; the
    # acceptance fixtures, then the 40320-point aabb-f5 bench job
    jobs = FIXTURES + [(2, ["aabb"], ["a", "b", "ab", "ba", "aB"], ["1", "a", "b"])]
    for rank, sub, F, E in jobs:
        w = lambda t: parse_word(t, rank)
        spec = CosetAction(rank, tuple(map(w, sub)))
        images = approximate(spec, list(map(w, F)), list(map(w, E))).approx.images
        order = [0]
        seen = {0}
        for s in order:  # the list grows while it is walked
            for image in images:
                if image[s] not in seen:
                    seen.add(image[s])
                    order.append(image[s])
        assert order == list(range(len(images[0]))), (rank, sub)


def test_core_build_reads_images_off_the_closure(monkeypatch):
    # the 40320-point carrier of the aabb-f5 bench job: composing every
    # generator with every element again took about 3 * 10**5 calls
    w = lambda t: parse_word(t, 2)
    spec = CosetAction(2, (w("aabb"),))
    points = [canonical_point(spec, w(t)) for t in ("1", "a", "b")]
    avoid, _ = separation_targets(spec, [w(t) for t in ("a", "b", "ab", "ba", "aB")], points)
    table = hall_completion(spec.graph, avoid)
    labels = [left_coset_of(table, x) for x in points]
    calls = 0

    def counted(p, q):
        nonlocal calls
        calls += 1
        return compose(p, q)

    for module in (permutations, quotients, builder):
        monkeypatch.setattr(module, "compose", counted)
    approx, witness = finite_index_witness("free", 2, table.inverses, labels, DEFAULT_CORE_CAP)
    assert approx.size == len(witness.pi) == 40320
    assert 0 < calls < 10**4


def test_verify_composes_once_per_letter_after_the_first(monkeypatch):
    # the aabb-f5 certificate again: phi of an element composes once per
    # letter after its first, over F and over the products of the pairs
    # (g, h) whose letters are not g's followed by h's, here aB.b = a and
    # aB.ba = aa; then one product phi(g) . phi(h) per such pair, and
    # every equivariance column pair is one gather.  Composing every pair
    # took 53 calls, and evaluating phi(gh) from scratch for every pair 85
    w = lambda t: parse_word(t, 2)
    spec = CosetAction(2, (w("aabb"),))
    F = [w(t) for t in ("a", "b", "ab", "ba", "aB")]
    E = [w(t) for t in ("1", "a", "b")]
    cert = approximate(spec, F, E)

    def folds(words):
        return sum(max(len(g.letters) - 1, 0) for g in words)

    cancelling = [multiply(g, h) for g in F for h in F
                  if multiply(g, h).letters != g.letters + h.letters]
    e_points = {x.letters for x in cert.E}
    gathers = sum(act(spec, invert(g), x).letters in e_points for g in F for x in cert.E)
    budget = folds(F) + folds(cancelling) + len(cancelling) + gathers
    calls = 0

    def counted(p, q):
        nonlocal calls
        calls += 1
        return compose(p, q)

    for module in (certificate, verifier):
        monkeypatch.setattr(module, "compose", counted)
    report = verify_certificate(cert)
    assert report.accepted and cert.approx.size == len(cert.witness.s_points) == 40320
    assert calls == budget == 3 + 1 + 2 + 3


# ---------------------------------------------------------------------------
# the witness


@pytest.mark.parametrize("b_size, e_size",
                         [(1, 1), (3, 1), (4, 2), (5, 5), (256, 3), (256, 256), (257, 1), (257, 4)])
@given(data=st.data())
def test_orbit_witness_matches_per_step_compose(b_size, e_size, data):
    # the carrier is the group the B permutations generate, listed as the
    # reference closure lists it, and pi is what the reference walk fills
    # from the identity row at point 0.  Up to 256 labels a row is bytes
    # and above it a tuple; there the B permutations are relabeled
    # dihedral generators, shuffled from a drawn seed, so that the group
    # stays small
    rank = data.draw(st.integers(1, 3))
    if b_size > 8:
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        relabel = tuple(rng.sample(range(b_size), b_size))
        b_perm = lambda: compose(compose(relabel, rng.choice(_dihedral(b_size))), inverse(relabel))
        labels = rng.sample(range(b_size), e_size)
    else:
        b_perm = lambda: tuple(data.draw(st.permutations(range(b_size))))
        labels = data.draw(st.permutations(range(b_size)))[:e_size]
    b_images = [b_perm() for _ in range(rank)]
    approx, built = finite_index_witness("free", rank, b_images, labels, DEFAULT_CORE_CAP)
    elements = _reference_image_group(b_images, b_size)
    index = {s: i for i, s in enumerate(elements)}
    assert approx.size == len(elements)
    assert approx.images == tuple(tuple(index[compose(g, s)] for s in elements) for g in b_images)
    assert built == _reference_orbit_witness(approx.images, b_images, labels)
    assert all(type(row) is tuple and len(row) == e_size for row in built.pi)
