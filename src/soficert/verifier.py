"""Independent certificate checking.

Everything here is exact rational/integer arithmetic.  A certificate is
accepted iff

* every generator image is a genuine permutation of the carrier,
* phi(1) is the identity (unital),
* the multiplicativity defect max d(phi(gh), phi(g)phi(h)) over F x F
  is 0, or strictly below epsilon when epsilon > 0; only the pairs whose
  product's letters are not g's followed by h's are composed, since phi
  is a fold of letter images and every other pair has defect 0,
* |S| = |A| when epsilon = 0, else |S| > (1 - epsilon)|A|,
* every pi_s is injective, and
* pi_{phi(g)s}(x) = pi_s(g^-1.x) whenever phi(g)s lies in S and g^-1.x
  lies in E.

The strict inequalities of the definition are unsatisfiable at
epsilon = 0 read literally; 0 is handled as the exact case (defect 0,
S = A), which is the reading under which the constructions in
:mod:`soficert.builder` are stated.

Point membership in E is decided by canonical-form equality, never by
syntactic word identity.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import compress, count, repeat
from typing import Sequence

from .actions import ActionSpec, act, element_invert, element_multiply, element_text
from .certificate import (
    Certificate, OrbitWitness, SoficApproximation, certificate_from_dict, load_certificate,
)
from .permutations import compose, identity_perm, is_permutation
from .words import Record, Word


def hamming(p: Sequence[int], q: Sequence[int]) -> Fraction:
    """Normalized Hamming distance |{i : p(i) != q(i)}| / |A|."""
    if len(p) != len(q):
        raise ValueError(f"carrier size mismatch: {len(p)} vs {len(q)}")
    return Fraction(sum(map(operator.ne, p, q)), len(p))


def check_unital(approx: SoficApproximation) -> bool:
    """phi of the empty word must be the identity permutation.

    phi is composed from the generator images, so phi(1) is the empty
    composition; the clause is evaluated and reported all the same."""
    idw = Word((), approx.rank)
    image = approx.permutation_of((idw, idw) if approx.group_kind == "product" else idw)
    return image == identity_perm(approx.size)


def check_multiplicative(
    approx: SoficApproximation, F: Sequence, images: Sequence | None = None
) -> Fraction:
    """Max defect d(phi(gh), phi(g) . phi(h)) over (g, h) in F x F; 0 when F is empty.

    phi of an element is the left fold of its letters' images under
    ``compose``, which is associative on any arrays whose entries are in
    range, permutations or not.  Where gh's letters are g's followed by
    h's, phi(gh) and phi(g) . phi(h) are therefore the same fold, and the
    defect is exactly 0.  Only the other pairs are composed: those whose
    letters cancel (x x^-1) and, for G x G, those whose left and right
    letters interleave, which is the commutation check.  The distance is
    counted only where phi(gh) and phi(g) . phi(h) differ.  ``images``
    is phi of F when the caller has it."""
    if images is None:
        images = list(map(approx.permutation_of, F))
    letters = [approx.letters(g) for g in F]
    worst = Fraction(0)
    for j, g in enumerate(F):
        for k, h in enumerate(F):
            gh = element_multiply(g, h)
            if approx.letters(gh) == letters[j] + letters[k]:
                continue
            direct = approx.permutation_of(gh)
            product = compose(images[j], images[k])
            if direct != product:
                worst = max(worst, hamming(direct, product))
    return worst


class OrbitCheck(Record):
    __slots__ = ("s_ratio", "cardinality_ok", "injectivity_failures", "equivariance_failures",
                 "triples_checked")


def check_orbit_witness(
    action: ActionSpec,
    approx: SoficApproximation,
    F: Sequence,
    E: Sequence[Word],
    witness: OrbitWitness,
    epsilon: Fraction,
    images: Sequence | None = None,
) -> OrbitCheck:
    """Cardinality, injectivity and equivariance clauses of the witness.

    Reports every violation, each tagged with the (s, g, x) data that
    produced it, in (g, s, x) order.  Injectivity is tested once per
    distinct row of pi; the rows are walked in file order only when one
    repeats an entry.  Equivariance is checked a column pair at a time:
    column x of pi, gathered through phi(g), must equal column g^-1.x;
    only a pair that differs is walked point by point.  ``images`` is
    phi of F when the caller has it.
    """
    size = approx.size
    s_list = list(witness.s_points)
    ratio = Fraction(len(s_list), size)
    if epsilon == 0:
        cardinality_ok = len(s_list) == size
    else:
        cardinality_ok = ratio > 1 - epsilon

    pi = witness.pi
    # each distinct row is tested once, mapped to its first repeated entry
    repeats = {row: next(v for v in row if row.count(v) > 1)
               for row in set(pi) if len(set(row)) < len(row)}
    injectivity_failures = [f"pi at s={s} repeats B index {repeats[row]}"
                            for s, row in zip(s_list, pi) if row in repeats] if repeats else []

    exact = s_list == list(range(size))
    s_pos = None if exact else dict(zip(s_list, count()))
    columns = list(zip(*pi))
    e_index = {x.letters: i for i, x in enumerate(E)}
    equivariance_failures = []
    triples = 0
    if images is None:
        images = list(map(approx.permutation_of, F))
    for g, perm in zip(F, images):
        g_inv = element_invert(g)
        col_map = {}
        for i, x in enumerate(E):
            y = act(action, g_inv, x)
            j = e_index.get(y.letters)
            if j is not None:
                col_map[i] = j
        if not col_map:
            continue
        # the rows p whose point s has phi(g)s in S, and the rows of those phi(g)s
        if exact:
            rows, moved = range(size), perm
        else:
            ahead_rows = list(map(s_pos.get, map(perm.__getitem__, s_list)))
            keep = list(map(operator.is_not, ahead_rows, repeat(None)))
            rows, moved = list(compress(range(len(keep)), keep)), list(compress(ahead_rows, keep))
        triples += len(rows) * len(col_map)
        if not rows:
            continue
        bad = []
        for i, j in col_map.items():
            ahead = compose(columns[i], moved)
            here = columns[j] if exact else compose(columns[j], rows)
            if ahead != here:
                bad.extend((rows[k], i) for k in range(len(rows)) if ahead[k] != here[k])
        bad.sort()
        for p, i in bad:
            equivariance_failures.append(
                f"pi_(phi(g)s)(x) != pi_s(g^-1.x) at s={s_list[p]}, "
                f"g={element_text(g)!r}, x={E[i].text()!r}"
            )
    return OrbitCheck(
        ratio,
        cardinality_ok,
        tuple(injectivity_failures),
        tuple(equivariance_failures),
        triples,
    )


class VerificationReport(Record):
    __slots__ = ("epsilon", "carrier_size", "permutation_failures", "unital", "max_defect",
                 "orbit")

    @property
    def multiplicative_ok(self) -> bool:
        return self.max_defect == 0 or self.max_defect < self.epsilon

    @property
    def clause_failures(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """(clause name, violation messages) in checking order; empty messages = pass."""
        return (
            ("carrier_permutations", self.permutation_failures),
            ("unital", () if self.unital else ("phi(1) is not the identity",)),
            (
                "multiplicative",
                ()
                if self.multiplicative_ok
                else (f"max defect {self.max_defect} not below epsilon {self.epsilon}",),
            ),
            (
                "cardinality",
                ()
                if self.orbit.cardinality_ok
                else (f"|S|/|A| = {self.orbit.s_ratio} too small for epsilon {self.epsilon}",),
            ),
            ("injectivity", self.orbit.injectivity_failures),
            ("equivariance", self.orbit.equivariance_failures),
        )

    @property
    def accepted(self) -> bool:
        return all(not msgs for _, msgs in self.clause_failures)

    @property
    def first_failure(self) -> str | None:
        for name, msgs in self.clause_failures:
            if msgs:
                return name
        return None

    def to_text(self) -> str:
        lines = [
            f"verdict: {'accept' if self.accepted else 'reject'}",
            f"carrier: |A| = {self.carrier_size}",
            f"epsilon: {self.epsilon}",
            f"unital: {'ok' if self.unital else 'FAIL'}",
            f"multiplicative: max defect {self.max_defect}",
            f"cardinality: |S|/|A| = {self.orbit.s_ratio}",
            f"injectivity: {len(self.orbit.injectivity_failures)} violation(s)",
            f"equivariance: {len(self.orbit.equivariance_failures)} violation(s) "
            f"over {self.orbit.triples_checked} triple(s)",
        ]
        if not self.accepted:
            lines.append(f"first failing clause: {self.first_failure}")
            for name, msgs in self.clause_failures:
                for msg in msgs:
                    lines.append(f"  [{name}] {msg}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "verdict": "accept" if self.accepted else "reject",
            "carrier_size": self.carrier_size,
            "epsilon": str(self.epsilon),
            "unital": self.unital,
            "max_defect": str(self.max_defect),
            "s_ratio": str(self.orbit.s_ratio),
            "triples_checked": self.orbit.triples_checked,
            "first_failure": self.first_failure,
            "violations": {
                name: list(msgs) for name, msgs in self.clause_failures if msgs
            },
        }


def verify_certificate(source, epsilon: Fraction | None = None) -> VerificationReport:
    """Check every clause of the certificate; ``source`` may be a path,
    a parsed JSON dict, or a Certificate.

    ``epsilon`` overrides the certificate's claimed tolerance.
    """
    if isinstance(source, Certificate):
        cert = source
    elif isinstance(source, dict):
        cert = certificate_from_dict(source)
    else:
        cert = load_certificate(source)
    eps = cert.epsilon if epsilon is None else epsilon
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")

    permutation_failures = []
    for i, arr in enumerate(cert.approx.images):
        if not is_permutation(arr, cert.approx.size):
            permutation_failures.append(f"generator image {i} is not a permutation")
    unital = check_unital(cert.approx)
    images = list(map(cert.approx.permutation_of, cert.F))
    defect = check_multiplicative(cert.approx, cert.F, images)
    orbit = check_orbit_witness(cert.action, cert.approx, cert.F, cert.E, cert.witness, eps,
                                images)
    return VerificationReport(
        eps, cert.approx.size, tuple(permutation_failures), unital, defect, orbit
    )
