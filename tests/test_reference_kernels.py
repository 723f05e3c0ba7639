"""The whole-array verifier clauses and schema checks against the
per-entry loops they replaced.

The previous ``check_multiplicative``, ``check_orbit_witness`` and
``certificate_from_dict`` are kept below verbatim as references, with
the previous ``compose``, ``hamming`` and phi evaluation they called,
less the whole-word image override that phi evaluation no longer has,
with B labels checked as integers, which is all B may hold, and with
every outside value in a message shortened by ``reprlib``.
On built certificates and their mutants the two must agree field for
field: every message and its order, ``triples_checked``, the defect,
and the text of every ``CertificateFormatError``.  The multiplicative
clause composes only the pairs whose product's letters are not a
concatenation; the lemma it rests on, that phi(gh) = phi(g) . phi(h)
for every other pair whatever arrays the generators map to, is checked
on its own.
"""

import copy
import random
import reprlib
from fractions import Fraction
from functools import lru_cache

import pytest
import hypothesis.strategies as st
from hypothesis import given

from soficert.actions import (
    BiregularAction,
    CosetAction,
    RestrictedAction,
    act,
    acting_rank,
    action_from_json,
    canonical_point,
    element_invert,
    element_multiply,
    element_text,
    parse_element,
    point_rank,
)
from soficert.builder import approximate
from soficert.certificate import (
    Certificate,
    CertificateFormatError,
    OrbitWitness,
    SoficApproximation,
    _expect,
    certificate_from_dict,
    certificate_to_dict,
    epsilon_from_json,
)
from soficert.permutations import identity_perm, inverse
from soficert.verifier import OrbitCheck, check_multiplicative, check_orbit_witness, verify_certificate
from soficert.words import free_reduce, parse_word

# ---------------------------------------------------------------------------
# the references


def _reference_compose(p, q):
    """p after q: (p . q)[i] = p[q[i]]."""
    return tuple(p[x] for x in q)


def _reference_hamming(p, q):
    """Normalized Hamming distance |{i : p(i) != q(i)}| / |A|."""
    if len(p) != len(q):
        raise ValueError(f"carrier size mismatch: {len(p)} vs {len(q)}")
    return Fraction(sum(1 for a, b in zip(p, q) if a != b), len(p))


def _reference_phi(approx, g):
    """phi(g), every word composed onto a fresh identity."""

    def eval_word(w, offset):
        perm = identity_perm(approx.size)
        for l in w.letters:
            i = offset + abs(l) - 1
            perm = _reference_compose(perm, approx.images[i] if l > 0 else inverse(approx.images[i]))
        return perm

    if isinstance(g, tuple):
        return _reference_compose(eval_word(g[0], 0), eval_word(g[1], approx.rank))
    return eval_word(g, 0)


def _reference_check_multiplicative(approx, F):
    """Max defect d(phi(gh), phi(g) . phi(h)) over (g, h) in F x F; 0 when F is empty."""
    worst = Fraction(0)
    images = [_reference_phi(approx, g) for g in F]
    for g, pg in zip(F, images):
        for h, ph in zip(F, images):
            gh = element_multiply(g, h)
            defect = _reference_hamming(_reference_phi(approx, gh), _reference_compose(pg, ph))
            if defect > worst:
                worst = defect
    return worst


def _reference_check_orbit_witness(action, approx, F, E, witness, epsilon):
    size = approx.size
    s_list = list(witness.s_points)
    s_pos = {s: p for p, s in enumerate(s_list)}
    ratio = Fraction(len(s_list), size)
    if epsilon == 0:
        cardinality_ok = len(s_list) == size
    else:
        cardinality_ok = ratio > 1 - epsilon

    injectivity_failures = []
    for p, s in enumerate(s_list):
        row = witness.pi[p]
        if len(set(row)) != len(row):
            dup = next(v for v in row if row.count(v) > 1)
            injectivity_failures.append(f"pi at s={s} repeats B index {dup}")

    e_index = {x.letters: i for i, x in enumerate(E)}
    equivariance_failures = []
    triples = 0
    for g in F:
        perm = _reference_phi(approx, g)
        g_inv = element_invert(g)
        col_map = {}
        for i, x in enumerate(E):
            y = act(action, g_inv, x)
            j = e_index.get(y.letters)
            if j is not None:
                col_map[i] = j
        for s in s_list:
            fs = perm[s]
            fp = s_pos.get(fs)
            if fp is None:
                continue
            p = s_pos[s]
            for i, j in col_map.items():
                triples += 1
                if witness.pi[fp][i] != witness.pi[p][j]:
                    equivariance_failures.append(
                        f"pi_(phi(g)s)(x) != pi_s(g^-1.x) at s={s}, "
                        f"g={element_text(g)!r}, x={E[i].text()!r}"
                    )
    return OrbitCheck(
        ratio,
        cardinality_ok,
        tuple(injectivity_failures),
        tuple(equivariance_failures),
        triples,
    )


def _reference_certificate_from_dict(data):
    _expect(isinstance(data, dict), "certificate", "top level must be an object")
    for key in ("action", "F", "E", "epsilon", "carrier_size",
                "generator_images", "S", "B", "pi"):
        _expect(key in data, key, "missing field")
    try:
        action = action_from_json(data["action"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"action: {exc}") from exc
    try:
        F = tuple(parse_element(action, item) for item in data["F"])
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError(f"F: {exc}") from exc
    try:
        E = tuple(parse_word(t, point_rank(action)) for t in data["E"])
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError(f"E: {exc}") from exc
    _expect(len({w.letters for w in E}) == len(E), "E", "duplicate points")
    for w, t in zip(E, data["E"]):
        canon = canonical_point(action, w)
        _expect(canon.letters == w.letters, "E",
                f"{t!r} is not the canonical name of its point (expected {canon.text()!r})")
    try:
        epsilon = epsilon_from_json(data["epsilon"])
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from exc

    size = data["carrier_size"]
    _expect(type(size) is int and size >= 1, "carrier_size", "must be a positive integer")
    group_kind = "product" if isinstance(action, BiregularAction) else "free"
    rank = acting_rank(action)
    expected_arrays = rank if group_kind == "free" else 2 * rank
    imgs = data["generator_images"]
    _expect(isinstance(imgs, list) and len(imgs) == expected_arrays,
            "generator_images", f"expected {expected_arrays} arrays")
    for i, arr in enumerate(imgs):
        _expect(isinstance(arr, list) and len(arr) == size,
                f"generator_images[{i}]", f"expected length {size}")
        for x in arr:
            _expect(type(x) is int and 0 <= x < size,
                    f"generator_images[{i}]", f"entry {reprlib.repr(x)} out of range")
    s_points = data["S"]
    _expect(isinstance(s_points, list), "S", "must be a list")
    _expect(all(type(s) is int and 0 <= s < size for s in s_points),
            "S", "entries must be carrier indices")
    _expect(sorted(set(s_points)) == s_points, "S", "must be strictly increasing")
    b_labels = data["B"]
    _expect(isinstance(b_labels, list), "B", "must be a list")
    for l in b_labels:
        _expect(type(l) is int, "B", f"label {reprlib.repr(l)} must be an integer")
    _expect(len(set(b_labels)) == len(b_labels), "B", "labels must be distinct")
    pi = data["pi"]
    _expect(isinstance(pi, list) and len(pi) == len(s_points),
            "pi", f"expected {len(s_points)} rows")
    for i, row in enumerate(pi):
        _expect(isinstance(row, list) and len(row) == len(E),
                f"pi[{i}]", f"expected {len(E)} entries")
        for v in row:
            _expect(type(v) is int and 0 <= v < len(b_labels),
                    f"pi[{i}]", f"entry {reprlib.repr(v)} is not a B index")
    approx = SoficApproximation(group_kind, rank, size, tuple(tuple(a) for a in imgs))
    witness = OrbitWitness(tuple(s_points), tuple(b_labels), tuple(tuple(r) for r in pi))
    provenance = data.get("provenance", {})
    _expect(isinstance(provenance, dict), "provenance", "must be an object")
    return Certificate(action, F, E, epsilon, approx, witness, provenance)


# ---------------------------------------------------------------------------
# certificates and mutants


def w2(t):
    return parse_word(t, 2)


BASES = ["coset-a", "coset-aa-b", "coset-aba", "coset-prefixes", "biregular", "biregular-letters",
         "conjugation"]
PRODUCT_BASES = ["biregular", "biregular-letters"]


@lru_cache(maxsize=None)
def base_dict(name):
    a, b = w2("a"), w2("b")
    one = w2("")
    if name == "coset-a":
        cert = approximate(CosetAction(2, (a,)), [a, b], [one, b])
    elif name == "coset-aa-b":
        F = [w2(t) for t in ("a", "b", "ab", "aB")]
        cert = approximate(CosetAction(2, (w2("aa"), b)), F, [one, a])
    elif name == "coset-aba":
        cert = approximate(CosetAction(2, (w2("aba"),)), [a, b, w2("Ab")], [one, a, w2("ab")])
    elif name == "coset-prefixes":
        # shared prefixes, inverse letters, the identity and a repeat
        F = [w2(t) for t in ("1", "a", "A", "ab", "abA", "Ba", "a")]
        cert = approximate(CosetAction(2, (w2("aa"), w2("bb"))), F, [one, a, b])
    elif name == "biregular":
        F = [(a, one), (one, b), (w2("ab"), w2("B"))]
        cert = approximate(BiregularAction(2), F, [one, a, b])
    elif name == "biregular-letters":
        F = [(a, one), (b, one), (one, a), (one, b)]
        cert = approximate(BiregularAction(2), F, [one, a, b])
    else:
        spec = RestrictedAction(BiregularAction(2), ((a, a), (b, b)))
        cert = approximate(spec, [a, b, w2("ab")], [one, a, b, w2("baB")])
    return certificate_to_dict(cert)


def clause_mutant(data, rng):
    """A schema-valid copy: S shrunk at a positive epsilon, generator
    images that are no longer permutations, and pi entries rewritten,
    each with probability 1/2."""
    d = copy.deepcopy(data)
    size, labels = d["carrier_size"], len(d["B"])
    if rng.random() < 0.5:
        d["epsilon"] = rng.choice(["1/2", "1/3", "2/3", "1/100", "1"])
        keep = sorted(rng.sample(range(len(d["S"])), rng.randint(0, len(d["S"]))))
        d["S"] = [d["S"][p] for p in keep]
        d["pi"] = [d["pi"][p] for p in keep]
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            rng.choice(d["generator_images"])[rng.randrange(size)] = rng.randrange(size)
    if rng.random() < 0.5 and d["pi"]:
        for _ in range(rng.randint(1, 4)):
            row = rng.choice(d["pi"])
            row[rng.randrange(len(row))] = rng.randrange(labels)
    return d


def product_mutant(data, rng):
    """A copy of a product certificate with one right-factor image swapped
    for another permutation: every image is still a permutation, but the
    left and right images no longer commute."""
    d = copy.deepcopy(data)
    images, size = d["generator_images"], d["carrier_size"]
    k = rng.randrange(len(images) // 2, len(images))
    old = images[k]
    while images[k] == old:
        images[k] = rng.sample(range(size), size)
    return d


# past reprlib's depth limit, so a message shows it shortened
DEEP = [[[[[[[[0]]]]]]]]


def schema_mutant(data, rng):
    """A copy with one to three entries, rows or fields of the wrong type,
    shape or range (or, now and then, a valid value)."""
    d = copy.deepcopy(data)
    size, labels = d["carrier_size"], len(d["B"])
    bad = [True, False, "0", "1", -1, 1.0, 0.5, None, [0], 10**6, DEEP]
    for _ in range(rng.randint(1, 3)):
        where = rng.randrange(7)
        arrays = [a for a in d["generator_images"] if isinstance(a, list) and a]
        rows = [r for r in d["pi"] if isinstance(r, list) and r]
        if where == 0 and arrays:
            rng.choice(arrays)[rng.randrange(size)] = rng.choice(bad + [size, 0])
        elif where == 1:
            k = rng.randrange(len(d["generator_images"]))
            d["generator_images"][k] = rng.choice([[0] * (size - 1), "x", [0] * (size + 1)])
        elif where == 2 and d["S"]:
            d["S"][rng.randrange(len(d["S"]))] = rng.choice(bad + [size])
        elif where == 3 and rows:
            row = rng.choice(rows)
            row[rng.randrange(len(row))] = rng.choice(bad + [labels, labels - 1])
        elif where == 4 and d["pi"]:
            p = rng.randrange(len(d["pi"]))
            d["pi"][p] = rng.choice([[0] * (len(d["E"]) - 1), [0] * (len(d["E"]) + 1), "x", {}, 3])
        elif where == 5:
            d["epsilon"] = rng.choice([0.0, 0.5, "1e-1", True, "1/0", "-1", "1/2", 0])
        elif where == 6:
            d["B"][rng.randrange(labels)] = rng.choice([True, "x", 0, [1, 2, 3]])
    return d


def outcome(parse, data):
    try:
        return "ok", parse(data)
    except CertificateFormatError as exc:
        return "error", str(exc)


# ---------------------------------------------------------------------------
# equivalence


def assert_clauses_match_reference(data):
    cert = certificate_from_dict(data)
    args = (cert.action, cert.approx, cert.F, cert.E, cert.witness, cert.epsilon)
    defect = _reference_check_multiplicative(cert.approx, cert.F)
    orbit = _reference_check_orbit_witness(*args)
    assert check_multiplicative(cert.approx, cert.F) == defect
    assert check_orbit_witness(*args) == orbit
    report = verify_certificate(data)
    assert report.max_defect == defect
    assert report.orbit == orbit


@pytest.mark.parametrize("name", BASES)
@given(rng=st.randoms(use_true_random=False))
def test_clauses_match_reference_on_mutants(name, rng):
    assert_clauses_match_reference(clause_mutant(base_dict(name), rng))


@pytest.mark.parametrize("name", PRODUCT_BASES)
@given(rng=st.randoms(use_true_random=False))
def test_clauses_match_reference_on_product_mutants(name, rng):
    assert_clauses_match_reference(product_mutant(base_dict(name), rng))


def test_product_mutants_are_permutations_with_a_defect():
    # every image stays a permutation, and within the first few seeds
    # the defect is nonzero on each product base
    for name in PRODUCT_BASES:
        defects = []
        for seed in range(10):
            cert = certificate_from_dict(product_mutant(base_dict(name), random.Random(seed)))
            assert all(sorted(img) == list(range(cert.approx.size)) for img in cert.approx.images)
            defects.append(_reference_check_multiplicative(cert.approx, cert.F))
        assert max(defects) > 0, name


def composes_a_pair(approx, F):
    """Whether some (g, h) in F x F has a product whose letters are not
    g's followed by h's, a pair the multiplicative clause composes."""
    return any(approx.letters(element_multiply(g, h)) != approx.letters(g) + approx.letters(h)
               for g in F for h in F)


@st.composite
def arrays_and_elements(draw):
    """Generator arrays of either group kind with entries in range(n),
    permutations or not, and a list F of short elements of the group,
    drawn from few letters so that some products cancel."""
    kind = draw(st.sampled_from(["free", "product"]))
    rank = draw(st.integers(1, 2))
    n = draw(st.integers(1, 5))
    arrays = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    images = tuple(draw(arrays) for _ in range(rank if kind == "free" else 2 * rank))
    letters = st.sampled_from([l for i in range(1, rank + 1) for l in (i, -i)])
    words = st.lists(letters, max_size=3).map(lambda ls: free_reduce(ls, rank))
    elements = words if kind == "free" else st.tuples(words, words)
    return SoficApproximation(kind, rank, n, images), draw(st.lists(elements, max_size=4))


@given(case=arrays_and_elements())
def test_concatenated_letters_have_no_defect(case):
    # phi is a fold of letter images and composition is associative on
    # any arrays whose entries are in range, so a pair whose product's
    # letters are g's followed by h's has defect 0 and need not be composed
    approx, F = case
    phi = [_reference_phi(approx, g) for g in F]
    for g, pg in zip(F, phi):
        for h, ph in zip(F, phi):
            gh = element_multiply(g, h)
            if approx.letters(gh) == approx.letters(g) + approx.letters(h):
                assert _reference_phi(approx, gh) == _reference_compose(pg, ph)
    assert check_multiplicative(approx, F) == _reference_check_multiplicative(approx, F)


def test_clause_mutants_reach_every_branch():
    # the built certificate itself, positive epsilon with S != A,
    # non-permutation images and broken equivariance, on each base,
    # within the first few seeds; and a nonzero defect on each base with
    # a pair that the multiplicative clause composes, so skipping those
    # pairs would show
    composing = set()
    for name in BASES:
        seen = set()
        expected = {"built", "epsilon", "non-permutation", "equivariance"}
        built = certificate_from_dict(base_dict(name))
        if composes_a_pair(built.approx, built.F):
            composing.add(name)
            expected.add("defect")
        for seed in range(40):
            data = clause_mutant(base_dict(name), random.Random(seed))
            if data == base_dict(name):
                seen.add("built")
            cert = certificate_from_dict(data)
            if cert.epsilon > 0 and len(cert.witness.s_points) < cert.approx.size:
                seen.add("epsilon")
            if any(sorted(img) != list(range(cert.approx.size)) for img in cert.approx.images):
                seen.add("non-permutation")
            if _reference_check_orbit_witness(cert.action, cert.approx, cert.F, cert.E,
                                              cert.witness, cert.epsilon).equivariance_failures:
                seen.add("equivariance")
            if _reference_check_multiplicative(cert.approx, cert.F) > 0:
                seen.add("defect")
        assert seen == expected, name
    assert composing == {"coset-aa-b", "coset-aba", "coset-prefixes", *PRODUCT_BASES}


@pytest.mark.parametrize("name", BASES)
@given(rng=st.randoms(use_true_random=False))
def test_schema_matches_reference_on_mutants(name, rng):
    data = schema_mutant(base_dict(name), rng)
    assert outcome(certificate_from_dict, data) == outcome(_reference_certificate_from_dict, data)
