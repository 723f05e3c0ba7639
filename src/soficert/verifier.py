"""Independent certificate checking.

Everything here is exact rational/integer arithmetic.  A certificate is
accepted iff

* every generator image is a genuine permutation of the carrier,
* phi(1) is the identity (unital),
* the multiplicativity defect max d(phi(gh), phi(g)phi(h)) over F x F
  is 0, or strictly below epsilon when epsilon > 0,
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

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .actions import ActionSpec, act, element_invert, element_multiply, element_text
from .builder import (
    Certificate,
    OrbitWitness,
    SoficApproximation,
    certificate_from_dict,
    load_certificate,
)
from .permutations import compose, identity_perm, is_permutation
from .words import Word


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


def check_multiplicative(approx: SoficApproximation, F: Sequence) -> Fraction:
    """Max defect d(phi(gh), phi(g) . phi(h)) over (g, h) in F x F; 0 when F is empty.

    phi(gh) is evaluated from the generator images for every pair; the
    distance is counted only where the two arrays differ."""
    worst = Fraction(0)
    images = [approx.permutation_of(g) for g in F]
    for g, pg in zip(F, images):
        for h, ph in zip(F, images):
            direct = approx.permutation_of(element_multiply(g, h))
            product = compose(pg, ph)
            if direct != product:
                worst = max(worst, hamming(direct, product))
    return worst


@dataclass(frozen=True)
class OrbitCheck:
    s_ratio: Fraction
    cardinality_ok: bool
    injectivity_failures: tuple[str, ...]
    equivariance_failures: tuple[str, ...]
    triples_checked: int


def check_orbit_witness(
    action: ActionSpec,
    approx: SoficApproximation,
    F: Sequence,
    E: Sequence[Word],
    witness: OrbitWitness,
    epsilon: Fraction,
) -> OrbitCheck:
    """Cardinality, injectivity and equivariance clauses of the witness.

    Reports every violation, each tagged with the (s, g, x) data that
    produced it, in (g, s, x) order.  Equivariance is checked a column
    pair at a time: column x of pi, gathered through phi(g), must equal
    column g^-1.x; only a pair that differs is walked point by point.
    """
    size = approx.size
    s_list = list(witness.s_points)
    ratio = Fraction(len(s_list), size)
    if epsilon == 0:
        cardinality_ok = len(s_list) == size
    else:
        cardinality_ok = ratio > 1 - epsilon

    pi = witness.pi
    injectivity_failures = []
    repeats = map(operator.ne, map(len, map(set, pi)), map(len, pi))
    for p in itertools.compress(range(len(s_list)), repeats):
        row = pi[p]
        dup = next(v for v in row if row.count(v) > 1)
        injectivity_failures.append(f"pi at s={s_list[p]} repeats B index {dup}")

    exact = s_list == list(range(size))
    s_pos = None if exact else {s: p for p, s in enumerate(s_list)}
    columns = list(zip(*pi))
    e_index = {x.letters: i for i, x in enumerate(E)}
    equivariance_failures = []
    triples = 0
    for g in F:
        perm = approx.permutation_of(g)
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
            pairs = [(p, s_pos[t]) for p, t in enumerate(map(perm.__getitem__, s_list))
                     if t in s_pos]
            rows, moved = [p for p, _ in pairs], [fp for _, fp in pairs]
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


@dataclass(frozen=True)
class VerificationReport:
    epsilon: Fraction
    carrier_size: int
    permutation_failures: tuple[str, ...]
    unital: bool
    max_defect: Fraction
    orbit: OrbitCheck

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
    defect = check_multiplicative(cert.approx, cert.F)
    orbit = check_orbit_witness(cert.action, cert.approx, cert.F, cert.E, cert.witness, eps)
    return VerificationReport(
        eps, cert.approx.size, tuple(permutation_failures), unital, defect, orbit
    )


# ---------------------------------------------------------------------------
# brute-force witness search (the tiny-scale oracle)

ORACLE_MAX_CARRIER = 8
ORACLE_MAX_POINTS = 3
ORACLE_MAX_B = 5


def brute_force_witness(
    action: ActionSpec,
    approx: SoficApproximation,
    F: Sequence,
    E: Sequence[Word],
    epsilon: Fraction,
    max_b: int,
) -> OrbitWitness | None:
    """Exhaustive search for an orbit witness; None when none exists.

    Enumerates |B| ascending from |E| to ``max_b`` and, inside, admissible
    S largest-first, assigning injective rows by backtracking against the
    equivariance constraints.  The first row is normalized to
    (0, ..., |E|-1), which is harmless since B labels are arbitrary.
    Guarded to |A| <= 8, |E| <= 3, max_b <= 5.
    """
    size = approx.size
    if size > ORACLE_MAX_CARRIER or len(E) > ORACLE_MAX_POINTS or max_b > ORACLE_MAX_B:
        raise ValueError(
            f"search-space guard exceeded: need |A| <= {ORACLE_MAX_CARRIER}, "
            f"|E| <= {ORACLE_MAX_POINTS}, max_B <= {ORACLE_MAX_B}"
        )
    if epsilon == 0:
        s_sizes = [size]
    else:
        q = (1 - epsilon) * size
        min_size = max(0, q.numerator // q.denominator + 1)
        s_sizes = list(range(size, min_size - 1, -1))

    e_index = {x.letters: i for i, x in enumerate(E)}
    gen_data = []
    for g in F:
        perm = approx.permutation_of(g)
        col_map = {}
        for i, x in enumerate(E):
            y = act(action, element_invert(g), x)
            j = e_index.get(y.letters)
            if j is not None:
                col_map[i] = j
        gen_data.append((perm, col_map))

    for b in range(len(E), max_b + 1):
        for s_size in s_sizes:
            for combo in itertools.combinations(range(size), s_size):
                rows = _assign_rows(combo, gen_data, len(E), b)
                if rows is not None:
                    return OrbitWitness(combo, tuple(range(b)), rows)
    return None


def _assign_rows(s_list, gen_data, n_cols, b):
    pos = {s: p for p, s in enumerate(s_list)}
    by_level: list[list[tuple[int, int, dict]]] = [[] for _ in s_list]
    for perm, col_map in gen_data:
        for s in s_list:
            fp = pos.get(perm[s])
            if fp is not None:
                p = pos[s]
                by_level[max(p, fp)].append((p, fp, col_map))
    rows: list[tuple[int, ...]] = []

    def consistent(level: int) -> bool:
        for p, fp, col_map in by_level[level]:
            for i, j in col_map.items():
                if rows[fp][i] != rows[p][j]:
                    return False
        return True

    def candidates(level: int):
        if level == 0:
            return [tuple(range(n_cols))]
        return itertools.permutations(range(b), n_cols)

    def backtrack(level: int) -> bool:
        if level == len(s_list):
            return True
        for cand in candidates(level):
            rows.append(cand)
            if consistent(level) and backtrack(level + 1):
                return True
            rows.pop()
        return False

    if not s_list:
        return ()
    return tuple(rows) if backtrack(0) else None


# ---------------------------------------------------------------------------
# mutation tooling

CLAUSE_MUTATION_KINDS = ("generator-entry", "pi-duplicate", "s-shrink", "pi-swap")
SCHEMA_MUTATION_KINDS = ("bool-for-int", "wrong-type", "float-epsilon")
MUTATION_KINDS = CLAUSE_MUTATION_KINDS + SCHEMA_MUTATION_KINDS


def mutate_certificate(data: dict, rng, kind: str | None = None):
    """One random single-entry mutation of a certificate JSON dict.

    Returns (mutated copy, kind, description), or None when the chosen
    kind has nothing to act on (caller retries).  The clause kinds break
    a verifier clause: the first three structurally (bijectivity,
    injectivity, cardinality at epsilon 0); "pi-swap" preserves
    injectivity and is kept only if a direct recomputation of the
    equivariance identity — independent of the verifier's code path —
    finds a violated triple.  The schema kinds put ``true`` or a string
    where an integer index belongs, or a float in ``epsilon``, so
    parsing the file raises CertificateFormatError.  Without a ``kind``
    a clause kind is drawn.
    """
    import copy

    if kind is None:
        kind = rng.choice(CLAUSE_MUTATION_KINDS)
    out = copy.deepcopy(data)
    size = data["carrier_size"]
    if kind == "generator-entry":
        if size < 2 or not data["generator_images"]:
            return None
        gi = rng.randrange(len(out["generator_images"]))
        i = rng.randrange(size)
        old = out["generator_images"][gi][i]
        new = rng.choice([v for v in range(size) if v != old])
        out["generator_images"][gi][i] = new
        return out, kind, f"generator_images[{gi}][{i}]: {old} -> {new}"
    if kind == "pi-duplicate":
        rows = [p for p, row in enumerate(out["pi"]) if len(row) >= 2]
        if not rows:
            return None
        p = rng.choice(rows)
        i, j = rng.sample(range(len(out["pi"][p])), 2)
        if out["pi"][p][i] == out["pi"][p][j]:
            return None
        out["pi"][p][i] = out["pi"][p][j]
        return out, kind, f"pi[{p}][{i}] := pi[{p}][{j}]"
    if kind == "s-shrink":
        if data["epsilon"] != "0" or not out["S"]:
            return None
        p = rng.randrange(len(out["S"]))
        removed = out["S"].pop(p)
        out["pi"].pop(p)
        return out, kind, f"dropped s={removed} from S"
    if kind == "pi-swap":
        rows = [p for p, row in enumerate(out["pi"]) if len(set(row)) >= 2]
        if not rows:
            return None
        p = rng.choice(rows)
        i, j = rng.sample(range(len(out["pi"][p])), 2)
        if out["pi"][p][i] == out["pi"][p][j]:
            return None
        out["pi"][p][i], out["pi"][p][j] = out["pi"][p][j], out["pi"][p][i]
        if not _swap_breaks_equivariance(out):
            return None
        return out, kind, f"swapped pi[{p}][{i}] and pi[{p}][{j}]"
    if kind in ("bool-for-int", "wrong-type"):
        arrays = {"generator_images": out["generator_images"], "S": [out["S"]], "pi": out["pi"]}
        fields = [name for name, rows in arrays.items() if any(rows)]
        if not fields:
            return None
        name = rng.choice(fields)
        k = rng.choice([k for k, row in enumerate(arrays[name]) if row])
        row = arrays[name][k]
        i = rng.randrange(len(row))
        old = row[i]
        row[i] = True if kind == "bool-for-int" else str(old)
        where = f"S[{i}]" if name == "S" else f"{name}[{k}][{i}]"
        return out, kind, f"{where}: {old!r} -> {row[i]!r}"
    if kind == "float-epsilon":
        out["epsilon"] = float(Fraction(data["epsilon"]))
        return out, kind, f"epsilon: {data['epsilon']!r} -> {out['epsilon']!r}"
    raise ValueError(f"unknown mutation kind {kind!r}")


def _swap_breaks_equivariance(data: dict) -> bool:
    """Recompute the equivariance identity directly on the mutated dict."""
    cert = certificate_from_dict(data)
    s_pos = {s: p for p, s in enumerate(cert.witness.s_points)}
    e_index = {x.letters: i for i, x in enumerate(cert.E)}
    for g in cert.F:
        perm = cert.approx.permutation_of(g)
        g_inv = element_invert(g)
        for i, x in enumerate(cert.E):
            y = act(cert.action, g_inv, x)
            j = e_index.get(y.letters)
            if j is None:
                continue
            for s, p in s_pos.items():
                fp = s_pos.get(perm[s])
                if fp is not None and cert.witness.pi[fp][i] != cert.witness.pi[p][j]:
                    return True
    return False
