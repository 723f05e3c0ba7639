import random
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given

from soficert.actions import (
    BiregularAction, CosetAction, RestrictedAction, act, element_invert, element_text,
)
from soficert.builder import approximate
from soficert.certificate import (
    CertificateFormatError,
    SoficApproximation,
    certificate_from_dict,
    certificate_to_dict,
)
from soficert.harness import MUTATION_KINDS, brute_force_witness, mutate_certificate
from soficert.verifier import (
    check_multiplicative,
    check_orbit_witness,
    check_unital,
    hamming,
    verify_certificate,
)
from soficert.permutations import compose, identity_perm, inverse
from soficert.words import multiply, parse_word


def w2(t):
    return parse_word(t, 2)


def w1(t):
    return parse_word(t, 1)


COSET_A = CosetAction(2, (w2("a"),))
F_AB = [w2("a"), w2("b")]


def base_cert():
    return approximate(COSET_A, F_AB, [w2(""), w2("b")])


# ---------------------------------------------------------------------------
# hamming distance


def test_hamming_frozen():
    assert hamming((0, 1), (0, 1)) == 0
    assert hamming((0, 1), (1, 0)) == 1
    assert hamming((0, 1, 2, 3, 4), (1, 0, 2, 3, 4)) == Fraction(2, 5)


def test_hamming_size_mismatch():
    with pytest.raises(ValueError):
        hamming((0, 1), (0, 1, 2))


@st.composite
def perms(draw, n=5):
    items = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(items)
    return tuple(items)


@given(perms(), perms(), perms())
def test_hamming_is_a_metric(p, q, r):
    assert hamming(p, q) == hamming(q, p)
    assert (hamming(p, q) == 0) == (p == q)
    assert hamming(p, r) <= hamming(p, q) + hamming(q, r)
    assert 0 <= hamming(p, q) <= 1


# ---------------------------------------------------------------------------
# phi clauses


def test_multiplicative_zero_for_built_certs():
    for cert in (
        base_cert(),
        approximate(BiregularAction(2), [], [w2(""), w2("a")]),
        approximate(
            RestrictedAction(BiregularAction(2), ((w2("a"), w2("a")), (w2("b"), w2("b")))),
            F_AB,
            [w2(""), w2("a")],
        ),
    ):
        assert check_multiplicative(cert.approx, cert.F) == 0


def test_multiplicative_empty_f():
    assert check_multiplicative(base_cert().approx, []) == 0


def test_multiplicative_defect_of_non_permutation_images():
    # phi(g) evaluated from scratch for every pair, inverting a generator
    # image at every inverse letter: the cached inverses must agree, even
    # where an image is not a permutation and its "inverse" is not one
    approx = SoficApproximation("free", 2, 4, ((1, 1, 2, 3), (0, 2, 3, 1)))
    F = [w2(t) for t in ("a", "b", "A", "aB", "Ba")]

    def phi(w):
        perm = identity_perm(approx.size)
        for l in w.letters:
            img = approx.images[abs(l) - 1]
            perm = compose(perm, img if l > 0 else inverse(img))
        return perm

    expected = max(hamming(phi(multiply(g, h)), compose(phi(g), phi(h))) for g in F for h in F)
    assert expected > 0
    assert check_multiplicative(approx, F) == expected
    assert approx.inverse_images is approx.inverse_images


def test_word_image_overrides_break_unital():
    """phi is composed from the generator images only: no per-word image
    override is accepted, so phi(1) cannot be made to differ from the identity."""
    approx = SoficApproximation("free", 1, 2, ((0, 1),))
    with pytest.raises(TypeError):
        check_unital(approx, word_images={"1": (1, 0)})
    with pytest.raises(TypeError):
        approx.permutation_of(w1(""), word_images={"1": (1, 0)})
    assert approx.permutation_of(w1("")) == identity_perm(2)
    assert check_unital(approx)


def test_unital_trivial_carrier():
    assert check_unital(SoficApproximation("free", 2, 1, ((0,), (0,))))
    assert check_unital(SoficApproximation("free", 1, 2, ((0, 1),)))


# ---------------------------------------------------------------------------
# orbit witness clauses


def test_witness_clause_failures_are_named():
    cert = base_cert()
    data = certificate_to_dict(cert)

    dup = {k: (v.copy() if isinstance(v, list) else v) for k, v in data.items()}
    dup["pi"] = [row.copy() for row in data["pi"]]
    dup["pi"][0][0] = dup["pi"][0][1]
    report = verify_certificate(dup)
    assert report.first_failure == "injectivity"
    assert "s=0" in report.orbit.injectivity_failures[0]

    shrunk = {k: (v.copy() if isinstance(v, list) else v) for k, v in data.items()}
    shrunk["pi"] = [row.copy() for row in data["pi"]]
    shrunk["S"] = shrunk["S"][:-1]
    shrunk["pi"] = shrunk["pi"][:-1]
    report = verify_certificate(shrunk)
    assert report.first_failure == "cardinality"


def test_injectivity_reports_each_repeating_row_in_file_order():
    # rows 0 and 3 are the same non-injective row and row 2 another, with
    # injective rows between them: the clause tests each distinct row
    # once, yet must name every position once, in file order, with the
    # first repeated entry of its row, as a test of every row does
    cert = approximate(COSET_A, F_AB, [w2(""), w2("b"), w2("bb")])
    data = certificate_to_dict(cert)
    data["pi"] = [[4, 1, 1], [0, 2, 4], [0, 3, 0], [4, 1, 1], [2, 4, 3]]
    report = verify_certificate(data)
    per_row = [f"pi at s={s} repeats B index {next(v for v in row if row.count(v) > 1)}"
               for s, row in zip(data["S"], data["pi"]) if len(set(row)) < len(row)]
    assert report.first_failure == "injectivity"
    assert list(report.orbit.injectivity_failures) == per_row == [
        "pi at s=0 repeats B index 1", "pi at s=2 repeats B index 0", "pi at s=3 repeats B index 1"]
    assert report.to_json_dict()["violations"]["injectivity"] == per_row


def test_equivariance_failure_names_triple():
    cert = base_cert()
    data = certificate_to_dict(cert)
    data["pi"] = [row.copy() for row in data["pi"]]
    data["pi"][1][0], data["pi"][1][1] = data["pi"][1][1], data["pi"][1][0]
    report = verify_certificate(data)
    assert not report.accepted
    assert report.first_failure == "equivariance"
    assert any("s=" in msg and "g=" in msg for msg in report.orbit.equivariance_failures)


def test_equivariance_messages_off_a_partial_window_match_a_point_walk():
    # S drops point 0, so file positions and point names differ, and one
    # row is swapped: the gathered column check must report exactly the
    # (g, s, x) triples a point-by-point walk finds, in the same order
    cert = approximate(COSET_A, F_AB + [w2("ab")], [w2(""), w2("b"), w2("bb"), w2("B")])
    data = certificate_to_dict(cert)
    data["epsilon"] = "1/2"
    data["S"] = data["S"][1:]
    data["pi"] = [row.copy() for row in data["pi"][1:]]
    data["pi"][2][0], data["pi"][2][1] = data["pi"][2][1], data["pi"][2][0]
    report = verify_certificate(data)
    cert = certificate_from_dict(data)
    row = dict(zip(data["S"], data["pi"]))
    e_index = {x.letters: j for j, x in enumerate(cert.E)}
    walk = []
    for g in cert.F:
        phi = cert.approx.permutation_of(g)
        for s in data["S"]:
            for i, x in enumerate(cert.E):
                j = e_index.get(act(cert.action, element_invert(g), x).letters)
                if phi[s] in row and j is not None and row[phi[s]][i] != row[s][j]:
                    walk.append(f"pi_(phi(g)s)(x) != pi_s(g^-1.x) at s={s}, "
                                f"g={element_text(g)!r}, x={x.text()!r}")
    assert report.first_failure == "equivariance"
    assert list(report.orbit.equivariance_failures) == walk == [
        f"pi_(phi(g)s)(x) != pi_s(g^-1.x) at s={s}, g={g!r}, x={x!r}"
        for s, g, x in [(2, "b", "1"), (2, "b", "b"), (3, "b", "b"), (3, "b", "bb"),
                        (2, "ab", "1")]]


def test_epsilon_branch_cardinality():
    cert = base_cert()
    data = certificate_to_dict(cert)
    data["epsilon"] = "1/2"
    data["S"] = data["S"][:2]
    data["pi"] = data["pi"][:2]
    assert verify_certificate(data).accepted  # 2/3 > 1/2
    data["S"] = data["S"][:1]
    data["pi"] = data["pi"][:1]
    report = verify_certificate(data)
    assert report.first_failure == "cardinality"  # 1/3 < 1/2


def test_epsilon_override():
    cert = base_cert()
    assert verify_certificate(cert, epsilon=Fraction(1, 10)).accepted
    assert verify_certificate(cert, epsilon=Fraction(0)).accepted


# ---------------------------------------------------------------------------
# the brute-force oracle


def test_oracle_guards():
    big = SoficApproximation("free", 1, 9, (tuple(range(9)),))
    with pytest.raises(ValueError):
        brute_force_witness(CosetAction(1, ()), big, [], [w1("")], Fraction(0), 2)
    small = SoficApproximation("free", 1, 2, ((0, 1),))
    with pytest.raises(ValueError):
        brute_force_witness(CosetAction(1, ()), small, [], [w1("")], Fraction(0), 6)


def test_oracle_trivial_case():
    approx = SoficApproximation("free", 1, 1, ((0,),))
    wit = brute_force_witness(CosetAction(1, (w1("a"),)), approx, [], [w1("")], Fraction(0), 1)
    assert wit is not None and wit.b_labels == (0,)


def test_oracle_finds_index_two_witness():
    spec = CosetAction(2, (w2("aa"), w2("b")))
    cert = approximate(spec, F_AB, [w2(""), w2("a")])
    assert cert.approx.size == 2
    wit = brute_force_witness(spec, cert.approx, cert.F, cert.E, Fraction(0), 2)
    assert wit is not None
    chk = check_orbit_witness(spec, cert.approx, cert.F, cert.E, wit, Fraction(0))
    assert chk.cardinality_ok
    assert not chk.injectivity_failures and not chk.equivariance_failures


def test_oracle_adversarial_none_found():
    # phi(a) is a 3-cycle but a acts on the two cosets of <aa> as a swap:
    # pushing an injective 2-point row around the odd cycle flips it back
    # onto itself, so no assignment survives at S = A
    spec = CosetAction(1, (w1("aa"),))
    approx = SoficApproximation("free", 1, 3, ((1, 2, 0),))
    E = [w1(""), w1("a")]
    assert brute_force_witness(spec, approx, [w1("a")], E, Fraction(0), 5) is None


def test_oracle_positive_epsilon_can_shrink_s():
    # same adversarial setup, but epsilon = 1/2 lets S drop to 2 of 3
    # points, where the cycle constraint no longer binds
    spec = CosetAction(1, (w1("aa"),))
    approx = SoficApproximation("free", 1, 3, ((1, 2, 0),))
    E = [w1(""), w1("a")]
    wit = brute_force_witness(spec, approx, [w1("a")], E, Fraction(1, 2), 5)
    assert wit is not None
    assert len(wit.s_points) == 2


def test_oracle_soundness_on_small_builds():
    for sub, e in [((), [""]), (("a",), ["", "b"]), (("aa", "b"), ["", "a"]),
                   (("ab", "ba"), ["", "a"])]:
        spec = CosetAction(2, tuple(w2(t) for t in sub))
        cert = approximate(spec, F_AB, [w2(t) for t in e])
        if cert.approx.size > 8:
            continue
        wit = brute_force_witness(
            spec, cert.approx, cert.F, cert.E, Fraction(0), len(cert.witness.b_labels)
        )
        assert wit is not None
        chk = check_orbit_witness(spec, cert.approx, cert.F, cert.E, wit, Fraction(0))
        assert chk.cardinality_ok
        assert not chk.injectivity_failures and not chk.equivariance_failures


# ---------------------------------------------------------------------------
# mutation tooling


def test_each_mutation_kind_kills_with_expected_clause():
    expected = {
        "generator-entry": "carrier_permutations",
        "pi-duplicate": "injectivity",
        "s-shrink": "cardinality",
        "pi-swap": "equivariance",
        "bool-for-int": "schema",
        "wrong-type": "schema",
        "float-epsilon": "schema",
    }
    data = certificate_to_dict(base_cert())
    rng = random.Random(3)
    seen = set()
    for _ in range(200):
        if seen == set(MUTATION_KINDS):
            break
        kind = rng.choice(MUTATION_KINDS)
        result = mutate_certificate(data, rng, kind)
        if result is None:
            continue
        mutated, got_kind, _ = result
        if expected[got_kind] == "schema":
            with pytest.raises(CertificateFormatError):
                verify_certificate(mutated)
            seen.add(got_kind)
            continue
        report = verify_certificate(mutated)
        assert not report.accepted
        assert report.first_failure == expected[got_kind]
        seen.add(got_kind)
    assert seen == set(MUTATION_KINDS)


def test_battery_counts_schema_mutants_as_killed():
    from soficert.harness import mutation_battery

    battery = mutation_battery([base_cert()], 60, seed=1)
    assert all(r["killed"] for r in battery)
    schema = {r["kind"] for r in battery if r["clause"] == "schema"}
    assert schema == {"bool-for-int", "wrong-type", "float-epsilon"}
    assert all(r["clause"] == "schema" for r in battery if r["kind"] in schema)


def test_mutations_never_alter_the_original():
    data = certificate_to_dict(base_cert())
    snapshot = certificate_to_dict(base_cert())
    rng = random.Random(5)
    for _ in range(40):
        mutate_certificate(data, rng)
    assert data == snapshot


def test_mutated_files_reject_at_scale():
    rng = random.Random(11)
    data = certificate_to_dict(base_cert())
    produced = 0
    while produced < 25:
        result = mutate_certificate(data, rng)
        if result is None:
            continue
        produced += 1
        mutated, _, _ = result
        assert not verify_certificate(mutated).accepted
