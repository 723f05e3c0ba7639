"""The brute-force witness oracle and the mutation battery that
``soficert fuzz`` runs.  These are test harnesses: the verifier does not
import them."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from .actions import ActionSpec, BiregularAction, CosetAction, act, element_invert
from .builder import approximate
from .certificate import (
    Certificate, CertificateFormatError, OrbitWitness, SoficApproximation,
    certificate_from_dict, certificate_to_dict,
)
from .verifier import check_orbit_witness, verify_certificate
from .words import Word, parse_word


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

def oracle_cases() -> list[Certificate]:
    """Deterministic pool of small built certificates (|A| <= 8, |E| <= 3,
    |B| <= 5) for the brute-force oracle to cross-examine."""
    jobs: list[tuple[ActionSpec, list, list[Word]]] = []
    for m in (2, 3, 4):
        spec = CosetAction(1, (parse_word("a" * m, 1),))
        points = [parse_word("a" * i, 1) for i in range(min(m, 3))]
        gens = [parse_word("a", 1)]
        for k in range(1, len(points) + 1):
            jobs.append((spec, gens, points[:k]))
    f2 = [parse_word("a", 2), parse_word("b", 2)]
    w2 = lambda t: parse_word(t, 2)
    for sub, e_sets in [
        ((w2("aa"), w2("b")), [["" ], ["", "a"]]),
        ((w2("a"),), [[""], ["", "b"]]),
        ((w2("ab"), w2("ba")), [[""], ["", "a"]]),
        ((w2("aa"), w2("ab")), [[""], ["", "a"]]),
        ((w2("a"), w2("bb")), [[""], ["", "b"]]),
        ((w2("aba"),), [["", "a"]]),
        ((), [["", "a"], ["", "b"]]),
    ]:
        spec = CosetAction(2, sub)
        for texts in e_sets:
            jobs.append((spec, f2, [w2(t) for t in texts]))
    for rank, e_sets in [(1, [["", "a"], ["", "a", "aa"], ["", "a", "A"]]),
                         (2, [["", "a"], ["", "a", "b"]])]:
        one, gens = parse_word("", rank), [parse_word(chr(97 + i), rank) for i in range(rank)]
        pairs = [(g, one) for g in gens] + [(one, g) for g in gens]
        for texts in e_sets:
            jobs.append((BiregularAction(rank), pairs, [parse_word(t, rank) for t in texts]))
    out = []
    for spec, F, E in jobs:
        cert = approximate(spec, F, E)
        if cert.approx.size <= 8 and len(cert.witness.b_labels) <= 5:
            out.append(cert)
    return out


def oracle_agreement(certs) -> list[dict]:
    """For each certificate, the oracle must find a witness and that
    witness must itself check out."""
    results = []
    for cert in certs:
        found = brute_force_witness(
            cert.action, cert.approx, cert.F, cert.E, cert.epsilon,
            max_b=len(cert.witness.b_labels),
        )
        agreed = found is not None
        if agreed:
            chk = check_orbit_witness(
                cert.action, cert.approx, cert.F, cert.E, found, cert.epsilon
            )
            agreed = (
                chk.cardinality_ok
                and not chk.injectivity_failures
                and not chk.equivariance_failures
            )
        results.append({
            "carrier_size": cert.approx.size,
            "points": [x.text() for x in cert.E],
            "agreed": agreed,
        })
    return results


def mutation_battery(bases, count: int, seed: int) -> list[dict]:
    """``count`` random single-entry mutations spread over the base
    certificates, each re-verified; records which clause rejected it,
    "schema" for a file the parser refuses."""
    rng = random.Random(seed)
    dicts = [certificate_to_dict(c) for c in bases]
    results = []
    attempts = 0
    while len(results) < count and attempts < 100 * count + 100:
        attempts += 1
        m = mutate_certificate(dicts[attempts % len(dicts)], rng, rng.choice(MUTATION_KINDS))
        if m is None:
            continue
        mutated, kind, description = m
        try:
            report = verify_certificate(mutated)
        except CertificateFormatError:
            killed, clause = True, "schema"
        else:
            killed, clause = not report.accepted, report.first_failure
        results.append({
            "kind": kind,
            "description": description,
            "killed": killed,
            "clause": clause,
        })
    return results
