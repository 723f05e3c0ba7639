import itertools
import json
import time

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from soficert.actions import (
    BiregularAction,
    CosetAction,
    RestrictedAction,
    canonical_point,
)
from soficert.builder import (
    QUOTIENT_SEARCH_MAX,
    SeparatorInvalidError,
    StageError,
    _separating_quotient,
    approximate,
    finite_index_witness,
    pairwise_differences,
    restrict_certificate,
    separation_targets,
)
from soficert.certificate import (
    Certificate,
    CertificateFormatError,
    OrbitWitness,
    SoficApproximation,
    certificate_from_dict,
    certificate_to_dict,
    load_certificate,
    write_certificate,
)
from soficert.permutations import compose, inverse
from soficert.quotients import (
    DEFAULT_CORE_CAP,
    CoreTooLargeError,
    CosetTable,
    coset_of,
    hall_completion,
    image_group,
    left_coset_of,
)
from soficert.stallings import core_graph
from soficert.verifier import verify_certificate
from soficert.words import Word, parse_word


def w2(t):
    return parse_word(t, 2)


def coset_action(table, w):
    """Left multiplication by ``w`` on the left-coset labels of ``table``:
    the fold of w's letters, generator i moving the labels by the inverse
    of its walk."""
    return SoficApproximation("free", table.rank, table.size, table.inverses).permutation_of(w)


COSET_A = CosetAction(2, (w2("a"),))
F_AB = [w2("a"), w2("b")]
DIAG = ((w2("a"), w2("a")), (w2("b"), w2("b")))
CONJ = RestrictedAction(BiregularAction(2), DIAG)


def build(spec, f_texts, e_texts, rank=2, **kw):
    w = lambda t: parse_word(t, rank)
    return approximate(spec, [w(t) for t in f_texts], [w(t) for t in e_texts], **kw)


# ---------------------------------------------------------------------------
# the worked coset pipeline, frozen end to end


def test_coset_pipeline_frozen():
    cert = approximate(COSET_A, F_AB, [w2(""), w2("b")])
    assert cert.approx.size == 3
    assert cert.approx.images == ((0, 1, 2), (1, 2, 0))
    assert cert.witness.b_labels == (0, 1, 2)
    assert cert.witness.pi == ((0, 2), (1, 0), (2, 1))
    assert cert.witness.s_points == (0, 1, 2)
    assert cert.epsilon == 0
    assert cert.provenance["separator"]["index"] == 3
    assert cert.provenance["point_labels"] == [0, 2]


def test_coset_pipeline_verifies():
    for sub, e in [((), ["", "a", "b"]), (("a",), ["", "b"]),
                   (("aa", "b"), ["", "a"]), (("ab", "ba"), ["", "a", "b"])]:
        spec = CosetAction(2, tuple(w2(t) for t in sub))
        cert = approximate(spec, F_AB, [w2(t) for t in e])
        report = verify_certificate(cert)
        assert report.accepted, report.to_text()
        assert report.max_defect == 0
        assert report.orbit.s_ratio == 1


def test_identity_lift_through_own_table():
    # H = <aa, b, abA> already has finite index (2); with E covering both
    # cosets the Hall completion is H's own table and the lift is a
    # column selection of the base witness
    spec = CosetAction(2, (w2("aa"), w2("b"), w2("abA")))
    cert = approximate(spec, F_AB, [w2(""), w2("a")])
    assert cert.provenance["separator"]["index"] == 2
    assert verify_certificate(cert).accepted


# ---------------------------------------------------------------------------
# the finite-index construction


def test_core_rows_are_closed_form():
    # the carrier is the image group's element list: phi(g_i) sends s to
    # table.inverses[i] . s, and the row of s is s^-1 at every coset
    table = hall_completion(core_graph([w2("a")], 2), [w2("b"), w2("B")])
    every_coset = list(range(table.size))
    approx, wit = finite_index_witness("free", 2, table.inverses, every_coset, DEFAULT_CORE_CAP)
    elements = [inverse(row) for row in image_group(table.inverses, table.size).rows]
    assert approx.size == len(elements) == len(wit.pi)
    assert wit.s_points == tuple(range(len(elements))) and wit.b_labels == tuple(every_coset)
    for image, g in zip(approx.images, table.inverses):
        assert [elements[t] for t in image] == [compose(g, s) for s in elements]
    assert list(wit.pi) == [inverse(s) for s in elements]


def literal_rows(table):
    """The literal construction on all of Sym(G/K), in closed form: the
    carrier is every permutation of the cosets in sorted order, phi(g_i)
    sends s to table.inverses[i] . s and the row of s is s^-1."""
    carrier = sorted(itertools.permutations(range(table.size)))
    index = {s: j for j, s in enumerate(carrier)}
    images = [tuple(index[compose(g, s)] for s in carrier) for g in table.inverses]
    return carrier, images, [inverse(s) for s in carrier]


def test_literal_matches_core_rows():
    # the core carrier is a subgroup of Sym(G/K), so each of its points
    # must carry the literal row and phi target of the same permutation
    table = hall_completion(core_graph([w2("a")], 2), [w2("b"), w2("B")])
    approx, wit = finite_index_witness("free", 2, table.inverses, list(range(table.size)),
                                       DEFAULT_CORE_CAP)
    carrier_lit, images_lit, pi_lit = literal_rows(table)
    carrier_core = [inverse(row) for row in image_group(table.inverses, table.size).rows]
    assert len(carrier_core) < len(carrier_lit)
    index = {p: i for i, p in enumerate(carrier_lit)}
    for j, s in enumerate(carrier_core):
        assert wit.pi[j] == pi_lit[index[s]]
        for gi in range(2):
            assert carrier_core[approx.images[gi][j]] == carrier_lit[images_lit[gi][index[s]]]


def test_literal_pi_is_inverse_permutation():
    # the coset permutations generate all of Sym(2), so the core carrier
    # is the literal one, in the same order, and pi_s = s^-1
    table = hall_completion(core_graph([w2("a")], 2), [w2("b")])
    carrier, images, _ = literal_rows(table)
    approx, wit = finite_index_witness("free", 2, table.inverses, [0, 1], DEFAULT_CORE_CAP)
    assert approx == SoficApproximation("free", 2, len(carrier), tuple(images))
    for j, s in enumerate(carrier):
        assert wit.pi[j] == inverse(s)


def test_lift_rejects_non_separating_table(monkeypatch):
    for images, fails in [
        (((0,), (0,)), "avoid"),  # one coset: b and B lie in it
        (((1, 0), (1, 0)), "contain"),  # b leaves coset 0, but so does a, which H contains
    ]:
        table = CosetTable(2, len(images[0]), images)
        monkeypatch.setattr("soficert.builder.hall_completion", lambda graph, avoid: table)
        with pytest.raises(StageError) as info:
            approximate(COSET_A, F_AB, [w2(""), w2("b")])
        assert info.value.stage == "hall_completion"
        assert isinstance(info.value.cause, SeparatorInvalidError)
        assert f"fails to {fails}" in str(info.value.cause)


def test_keyboard_interrupt_is_not_a_stage_error(monkeypatch):
    # Ctrl-C during a long Hall completion must stop the run, not be
    # reported as the stage failing
    interrupt = KeyboardInterrupt()

    def interrupted(graph, avoid):
        raise interrupt

    monkeypatch.setattr("soficert.builder.hall_completion", interrupted)
    with pytest.raises(KeyboardInterrupt) as info:
        approximate(COSET_A, F_AB, [w2(""), w2("b")])
    assert info.value is interrupt


def test_lift_uses_left_coset_labels():
    # regression: with E = {1, b, ab} over H = <a>, the right-coset labels
    # of the canonical representatives collide (b and ab land together)
    # while the left-coset labels stay distinct; only the latter make the
    # lifted rows injective
    E = [canonical_point(COSET_A, w2(t)) for t in ("", "b", "ab")]
    avoid, _ = separation_targets(COSET_A, F_AB, E)
    table = hall_completion(COSET_A.graph, avoid)
    right = [coset_of(table, x) for x in E]
    left = [left_coset_of(table, x) for x in E]
    assert len(set(right)) < len(E)
    assert len(set(left)) == len(E)
    cert = approximate(COSET_A, F_AB, E)
    assert verify_certificate(cert).accepted


# ---------------------------------------------------------------------------
# biregular and conjugation certificates


def test_biregular_small_quotient_route():
    # E = {1, a}: separating {a, A} through a Hall table gives the cyclic
    # quotient of order 3, which is its own centre, so the carrier has
    # 3 * 3 / 3 points
    cert = build(BiregularAction(2), [], ["", "a"])
    assert cert.provenance["strategy"] == "hall-core"
    assert cert.provenance["quotient"]["order"] == 3
    assert cert.approx.size == 3
    assert verify_certificate(cert).accepted


def test_biregular_nonabelian_search_route():
    F = [DIAG[0], DIAG[1]]
    cert = approximate(BiregularAction(2), F, [w2(t) for t in ("", "a", "b", "baB")])
    assert cert.provenance["strategy"] == "quotient-search"
    assert cert.provenance["quotient"]["order"] == 6  # S_3, the least quotient
    assert cert.approx.size == 36
    assert verify_certificate(cert).accepted


def radius_ball(radius, rank=2):
    """Reduced words of length <= radius, layer by layer, letters a b A B
    at rank 2 (a b c A B C at rank 3)."""
    letters = [*range(1, rank + 1), *range(-1, -rank - 1, -1)]
    words, layer = [Word((), rank)], [()]
    for _ in range(radius):
        layer = [w + (l,) for w in layer for l in letters if not w or w[-1] != -l]
        words += [Word(w, rank) for w in layer]
    return words


def naive_closure(generators):
    """The group the generators generate, listed by breadth-first
    products rather than sized by a stabilizer chain."""
    elements = {tuple(range(len(generators[0])))}
    frontier = list(elements)
    while frontier:
        frontier = [compose(g, u) for u in frontier for g in generators]
        frontier = [v for v in set(frontier) if v not in elements]
        elements.update(frontier)
    return elements


def least_separating_pair(points):
    """Brute force over every pair of permutations of degree <= 5.

    Generator i maps to the inverse of walk i, so w maps to
    ``coset_action`` of the pair's table; every difference x^-1 y
    survives exactly when the points map to distinct permutations.
    Returns the first degree where some pair separates, the
    lexicographically first pair there of least group order, and that
    order; None if no degree does."""
    for degree in range(2, 6):
        perms = sorted(itertools.permutations(range(degree)))
        best = None
        for pair in itertools.product(perms, repeat=2):
            letter = {1: inverse(pair[0]), 2: inverse(pair[1]), -1: pair[0], -2: pair[1]}
            images = set()
            for x in points:
                perm = tuple(range(degree))
                for l in x.letters:
                    perm = compose(perm, letter[l])
                if perm in images:
                    break
                images.add(perm)
            else:
                order = len(naive_closure(pair))
                if best is None or order < best[2]:
                    best = (degree, pair, order)
        if best is not None:
            return best
    return None


@pytest.mark.parametrize("points, count, degree, walks, order", [
    (radius_ball(2), 160, 5, ((1, 2, 3, 4, 0), (1, 3, 0, 4, 2)), 60),
    ([w2(t) for t in ("", "a", "b", "ab", "ba")], 16, 3, ((0, 2, 1), (1, 0, 2)), 6),
], ids=["radius-2-ball", "biregular-e5"])
def test_separating_quotient_frozen(points, count, degree, walks, order):
    # the search's answer is the brute-force one: no pair of lower degree
    # separates, and the walks are the first pair of least order (A_5,
    # not S_5, for the radius-2 ball)
    targets = pairwise_differences(points)
    assert len(targets) == count
    assert least_separating_pair(points) == (degree, walks, order)
    table, group, route = _separating_quotient(2, targets)
    assert (table.size, table.images, len(group), route) == (degree, walks, order, "quotient-search")
    assert all(coset_action(table, w) != tuple(range(degree)) for w in targets)


def test_rank_3_window_gets_the_least_quotient_of_its_degree():
    # first separated at degree 5; a first hit there generates S_5
    E = [parse_word(t, 3) for t in ("1", "a", "b", "c", "A", "B", "C",
                                    "CC", "Ca", "Ba", "AB", "aB", "cc")]
    cert = approximate(BiregularAction(3), [], E)
    quotient = cert.provenance["quotient"]
    assert (cert.provenance["strategy"], quotient["degree"], quotient["order"]) == (
        "quotient-search", 5, 60)
    assert quotient["walks"] == [[0, 1, 3, 4, 2], [0, 2, 3, 1, 4], [1, 2, 3, 4, 0]]
    assert cert.approx.size == 3600
    assert verify_certificate(cert).accepted


def test_rank_3_radius_2_ball_is_refused():
    with pytest.raises(StageError) as exc:
        approximate(BiregularAction(3), [], radius_ball(2, rank=3))
    assert exc.value.stage == "biregular"
    assert isinstance(exc.value.cause, CoreTooLargeError)
    assert str(exc.value.cause).startswith(
        "no quotient of degree at most 5 separates the 936 targets ['a', 'b', 'c', ")


def test_quotient_search_budget_covers_rank_3():
    # at degree 5 a rank-3 search sets generator 1 once per conjugacy
    # class, generator 2 once per orbit of pairs under simultaneous
    # conjugation, and generator 3 to all of S_5 below each pair (both
    # counts by Burnside: sums of centralizer sizes over |S_5|)
    perms = list(itertools.permutations(range(5)))
    centralizers = [sum(compose(g, s) == compose(s, g) for s in perms) for g in perms]
    classes = sum(centralizers) // len(perms)
    pairs = sum(c * c for c in centralizers) // len(perms)
    assert (classes, pairs) == (7, 161)
    assert classes + pairs + pairs * len(perms) == 19_488 <= QUOTIENT_SEARCH_MAX


@pytest.mark.parametrize("rank, points, outcome", [
    (4, radius_ball(1, rank=4), (4, 12)),
    (6, radius_ball(1, rank=6), (4, 24)),
    # only the last generator's targets bite, so the search stops at its
    # budget and keeps the least order among the tuples it reached
    (4, ["1", "a", "b", "c", "d", "d" * 12], (5, 120)),
    (6, ["1", "a", "b", "c", "d", "e", "f", "f" * 60], "4, 5"),
    (4, radius_ball(2, rank=4), ""),
], ids=["rank-4-ball", "rank-6-ball", "rank-4-cut", "rank-6-cut-refusal", "rank-4-refusal"])
def test_high_rank_quotient_search_stays_bounded(rank, points, outcome):
    # each case takes about a second at most on 2 CPUs; searching every
    # tuple took from 11 s to over a minute for the last four, and each
    # further generator multiplies that by up to 120
    points = [parse_word(x, rank) if isinstance(x, str) else x for x in points]
    targets = pairwise_differences(points)
    start = time.perf_counter()
    try:
        table, group, route = _separating_quotient(rank, targets)
    except CoreTooLargeError as exc:
        # outcome names the degrees cut short; one cut without a hit
        # hands on to the next
        cut = f" (the search stopped at 25000 generators of degree {outcome})" if outcome else ""
        assert str(exc).endswith("...]" + cut)
    else:
        assert (route, table.size, len(group)) == ("quotient-search", *outcome)
        assert all(coset_action(table, w) != tuple(range(table.size)) for w in targets)
    assert time.perf_counter() - start < 5


def test_biregular_deterministic():
    a = certificate_to_dict(build(BiregularAction(2), [], ["", "a", "b", "baB"]))
    b = certificate_to_dict(build(BiregularAction(2), [], ["", "a", "b", "baB"]))
    assert a == b


def test_single_factor_carrier_fails_for_nonabelian_quotient():
    # Taking the carrier to be one copy of Q with pi_s(x) = s^-1 q(x)
    # satisfies equivariance only when Q is abelian: the identity needs
    # k(s^-1 h^-1 q(x)) = (s^-1 h^-1 q(x))k for the right factor k.  On
    # the S_3 quotient the verifier pinpoints the failure; the group that
    # the left and right translations of Q generate (what the builder
    # emits, here all of Q x Q since S_3 has a trivial centre) is the fix.
    good = approximate(BiregularAction(2), [DIAG[0], DIAG[1]],
                       [w2(t) for t in ("", "a", "b", "baB")])
    walks = [tuple(p) for p in good.provenance["quotient"]["walks"]]
    degree = good.provenance["quotient"]["degree"]
    steps = walks + [inverse(p) for p in walks]
    elements = [tuple(range(degree))]
    seen = {elements[0]}
    queue = [elements[0]]
    while queue:
        u = queue.pop(0)
        for p in steps:
            v = compose(p, u)
            if v not in seen:
                seen.add(v)
                elements.append(v)
                queue.append(v)
    index = {p: i for i, p in enumerate(elements)}
    m = len(elements)
    assert m == 6

    gens = [inverse(p) for p in walks]  # left-multiplication images of the generators
    images = []
    for g in gens:  # left factor: u -> gu
        images.append(tuple(index[compose(g, p)] for p in elements))
    for g in gens:  # right factor: u -> u g^-1 (so phi is still a homomorphism)
        images.append(tuple(index[compose(p, inverse(g))] for p in elements))
    labels = {x.text(): i for x, i in zip(good.E, good.provenance["point_labels"])}
    pi = []
    for s in range(m):
        inv_s = inverse(elements[s])
        pi.append(tuple(index[compose(inv_s, elements[labels[x.text()]])] for x in good.E))
    naive = Certificate(
        BiregularAction(2),
        good.F,
        good.E,
        good.epsilon,
        SoficApproximation("product", 2, m, tuple(images)),
        OrbitWitness(tuple(range(m)), tuple(range(m)), tuple(pi)),
        {},
    )
    report = verify_certificate(naive)
    assert not report.accepted
    assert report.first_failure == "equivariance"


def test_conjugation_restriction_matches_biregular_diagonal():
    cert = approximate(CONJ, F_AB, [w2(t) for t in ("", "a", "b", "baB")])
    bireg = approximate(BiregularAction(2), [DIAG[0], DIAG[1]],
                        [w2(t) for t in ("", "a", "b", "baB")])
    for j, g in enumerate(F_AB):
        assert cert.approx.images[j] == bireg.approx.permutation_of((g, g))
    assert cert.witness == bireg.witness
    assert verify_certificate(cert).accepted


def test_restrict_without_builder_provenance_verifies():
    # provenance is informative only: the base phi is an exact
    # homomorphism, so any pull-back of it verifies, whether or not the
    # images of F lie in the base F
    cert = approximate(COSET_A, [w2("a")], [w2(""), w2("b")])
    stripped = certificate_from_dict({**certificate_to_dict(cert), "provenance": {}})
    for images, F in (([w2("a"), w2("")], [w2("a"), w2("b")]), ([w2("b"), w2("a")], [w2("a")])):
        assert verify_certificate(restrict_certificate(stripped, images, F)).accepted


def test_restricted_coset_action_pipeline():
    inner = CosetAction(2, (w2("a"),))
    spec = RestrictedAction(inner, (w2("ab"), w2("b")))
    cert = approximate(spec, F_AB, [w2(""), w2("b")])
    assert verify_certificate(cert).accepted
    # phi factors through the images
    base = approximate(inner, [w2("ab"), w2("b")], [w2(""), w2("b")])
    assert cert.approx.images[0] == base.approx.permutation_of(w2("ab"))


# ---------------------------------------------------------------------------
# witness monotonicity: dropping E columns keeps a valid certificate


def test_sub_witness_still_verifies():
    cert = approximate(COSET_A, F_AB, [w2(""), w2("b"), w2("ab")])
    for keep in ([0], [1], [0, 1], [0, 2], [1, 2]):
        wit = OrbitWitness(
            cert.witness.s_points,
            cert.witness.b_labels,
            tuple(tuple(row[i] for i in keep) for row in cert.witness.pi),
        )
        sub = Certificate(
            cert.action, cert.F, tuple(cert.E[i] for i in keep),
            cert.epsilon, cert.approx, wit, cert.provenance,
        )
        assert verify_certificate(sub).accepted


@given(st.permutations(list(range(3))))
def test_point_order_does_not_affect_acceptance(order):
    pts = [w2(""), w2("b"), w2("ab")]
    cert = approximate(COSET_A, F_AB, [pts[i] for i in order])
    assert verify_certificate(cert).accepted


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_bytes(tmp_path):
    cert = approximate(COSET_A, F_AB, [w2(""), w2("b")])
    path = tmp_path / "cert.json"
    write_certificate(cert, str(path))
    text = path.read_text()
    again = load_certificate(str(path))
    write_certificate(again, str(path))
    assert path.read_text() == text
    assert json.loads(text)["epsilon"] == "0"
    # B holds integers only; a [tag, label] pair is refused
    tagged = {**json.loads(text), "B": [[0, 0], [0, 1], [1, 0]]}
    with pytest.raises(CertificateFormatError, match=r"^B: label \[0, 0\] must be an integer$"):
        certificate_from_dict(tagged)


def test_written_layout_is_one_key_per_line(tmp_path):
    cert = approximate(BiregularAction(2), [], [w2(t) for t in ("", "a", "b")])
    path = tmp_path / "cert.json"
    write_certificate(cert, str(path))
    text = path.read_text()
    assert json.loads(text) == certificate_to_dict(cert)
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    fields = [json.loads("{" + line.removesuffix(",") + "}") for line in lines[1:-1]]
    assert [list(f) for f in fields] == [[key] for key in sorted(certificate_to_dict(cert))]
    for line, f in zip(lines[1:-1], fields):
        (key, value), = f.items()
        compact = json.dumps(value, separators=(",", ":"), sort_keys=True)
        assert line.removesuffix(",") == f"{json.dumps(key)}: {compact}"


def test_schema_field_errors():
    base = certificate_to_dict(approximate(COSET_A, F_AB, [w2(""), w2("b")]))

    def broken(**patch):
        return {**{k: json.loads(json.dumps(v)) for k, v in base.items()}, **patch}

    with pytest.raises(CertificateFormatError, match="S"):
        certificate_from_dict(broken(S=[0, 0, 1]))
    with pytest.raises(CertificateFormatError, match="pi"):
        certificate_from_dict(broken(pi=[[0, 1]]))
    with pytest.raises(CertificateFormatError, match="generator_images"):
        certificate_from_dict(broken(generator_images=[[0, 1, 5], [2, 0, 1]]))
    with pytest.raises(CertificateFormatError, match="epsilon"):
        certificate_from_dict(broken(epsilon="-1"))
    with pytest.raises(CertificateFormatError, match="B"):
        certificate_from_dict(broken(B=[0, 0, 2]))
    with pytest.raises(CertificateFormatError, match="E"):
        certificate_from_dict(broken(E=["1", "ba"]))  # non-canonical point name
    missing = broken()
    del missing["carrier_size"]
    with pytest.raises(CertificateFormatError, match="carrier_size"):
        certificate_from_dict(missing)


def test_schema_allows_verdict_level_breakage():
    # a non-permutation generator image is structurally fine (the verifier
    # owns that clause), so loading must succeed and verification reject
    base = certificate_to_dict(approximate(COSET_A, F_AB, [w2(""), w2("b")]))
    base["generator_images"][0][0] = base["generator_images"][0][1]
    cert = certificate_from_dict(base)
    report = verify_certificate(cert)
    assert not report.accepted
    assert report.first_failure == "carrier_permutations"
