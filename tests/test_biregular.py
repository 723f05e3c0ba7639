"""Biregular windows against an independent centre oracle.

G x G acting on G is the action on the cosets of the diagonal, so the
builder's carrier is the group that Q's left and right translations
generate.  Its kernel on Q is the diagonal copy of the centre Z(Q) (a
pair (z, z) moves q to z q z^-1 = q exactly when z is central), so the
carrier has |Q|^2 / |Z(Q)| points.  Here Q is listed by brute force from
the quotient walks in the certificate's provenance and its centre is
counted element by element, apart from any code of the builder.

The windows are E = {1} plus one or two points of the radius-2 ball at
ranks 1 and 2 and of the radius-1 ball at rank 3: 167 windows, each of
which must build, verify and satisfy |A| |Z(Q)| = |Q|^2.
"""

import itertools

import pytest

from soficert.actions import BiregularAction
from soficert.builder import approximate
from soficert.permutations import compose, identity_perm
from soficert.verifier import verify_certificate
from soficert.words import Word
from test_builder import radius_ball


def windows(rank, radius):
    one, *others = radius_ball(radius, rank)
    return [[one, *extra] for k in (1, 2) for extra in itertools.combinations(others, k)]


def brute_force_group(generators, degree):
    """Every product of ``generators``, by closure from the identity."""
    elements = [identity_perm(degree)]
    seen = set(elements)
    for u in elements:  # the list grows while it is walked
        for p in generators:
            v = compose(p, u)
            if v not in seen:
                seen.add(v)
                elements.append(v)
    return elements


@pytest.mark.parametrize("rank, radius, count", [(1, 2, 10), (2, 2, 136), (3, 1, 21)])
def test_biregular_carrier_is_q_squared_over_its_centre(rank, radius, count):
    E_windows = windows(rank, radius)
    assert len(E_windows) == count
    one = Word((), rank)
    F = [pair for l in range(1, rank + 1) for pair in ((Word((l,), rank), one),
                                                         (one, Word((l,), rank)))]
    for E in E_windows:
        cert = approximate(BiregularAction(rank), F, E)
        assert verify_certificate(cert).accepted, [x.text() for x in E]
        quotient = cert.provenance["quotient"]
        walks = [tuple(p) for p in quotient["walks"]]
        Q = brute_force_group(walks, quotient["degree"])
        centre = [z for z in Q if all(compose(z, p) == compose(p, z) for p in walks)]
        assert len(Q) == quotient["order"]
        assert cert.approx.size * len(centre) == len(Q) ** 2, [x.text() for x in E]
