"""Acceptance suite: seven exact end-to-end properties, one test each.

Every certificate here is checked at epsilon = 0 -- multiplicativity
defect exactly zero, S = A, injective rows, exact equivariance.  Run
with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion.
"""

import contextlib
import io
import json
import random
import time

import pytest

from soficert.actions import BiregularAction, CosetAction, RestrictedAction
from soficert.builder import approximate, contains, restrict_certificate, separation_targets
from soficert.certificate import load_certificate
from soficert.cli import main
from soficert.harness import mutation_battery, oracle_agreement, oracle_cases
from soficert.permutations import compose, inverse
from soficert.quotients import CosetTable, coset_of, hall_completion, image_group
from soficert.stallings import core_graph
from soficert.words import Word, parse_word

# rank, subgroup generators, F, E -- generator counts <= 3, word lengths
# <= 6, |F| <= 4, |E| <= 4, over both rank-2 and rank-3 free groups
FIXTURES = [
    (2, [], ["a", "b"], ["1", "a"]),
    (2, ["a"], ["a", "b"], ["1", "b"]),
    (2, ["aa", "b"], ["a", "b"], ["1", "a"]),
    (2, ["ab", "ba"], ["a", "b"], ["1", "a"]),
    (2, ["abA"], ["a", "b"], ["1", "a"]),
    (2, ["aa", "ab"], ["a", "b"], ["1", "a"]),
    (2, ["a", "bb"], ["a", "b"], ["1", "b"]),
    (2, ["aba"], ["a", "b"], ["1", "a", "ab"]),
    (3, [], ["a", "b", "c"], ["1", "a"]),
    (3, ["a", "b"], ["a", "b", "c"], ["1", "c"]),
    (3, ["ab", "c"], ["a", "b", "c"], ["1", "a"]),
    (3, ["aa", "b", "c"], ["a", "b", "c"], ["1", "a"]),
]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def write_job(directory, index, rank, sub, F, E):
    path = directory / f"job{index}.json"
    path.write_text(json.dumps({
        "action": {"kind": "coset", "rank": rank, "subgroup": sub},
        "F": F,
        "E": E,
    }))
    return str(path)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Criterion-1 pipeline runs, shared with criteria 2 and 6."""
    directory = tmp_path_factory.mktemp("acceptance")
    results = []
    started = time.perf_counter()
    for i, (rank, sub, F, E) in enumerate(FIXTURES):
        cfg = write_job(directory, i, rank, sub, F, E)
        out = str(directory / f"cert{i}.json")
        rc_build, text = run_cli(["approx", "--config", cfg, "--out", out, "--json"])
        summary = json.loads(text) if rc_build == 0 else {}
        rc_check, text = run_cli(["verify", out, "--json"])
        report = json.loads(text)
        results.append({
            "fixture": (rank, sub, F, E),
            "cert_path": out,
            "rc": (rc_build, rc_check),
            "summary": summary,
            "report": report,
        })
    elapsed = time.perf_counter() - started
    return {"dir": directory, "results": results, "elapsed": elapsed}


def test_criterion_1_exactness_suite(built):
    assert len(built["results"]) == 12
    for r in built["results"]:
        assert r["rc"] == (0, 0), r["fixture"]
        report = r["report"]
        assert report["verdict"] == "accept"
        assert report["max_defect"] == "0"
        assert report["s_ratio"] == "1"
        assert report["unital"] is True
        assert report["violations"] == {}
        assert report["triples_checked"] > 0
    assert built["elapsed"] < 10.0
    print(f"criterion 1: PASS -- 12/12 certificates exact in {built['elapsed']:.2f}s")


def test_criterion_2_core_closed_form(built):
    # each certificate from criterion 1, read against its separator's
    # table and the image group it generates, not against the witness walk
    for r in built["results"]:
        cert = load_certificate(r["cert_path"])
        separator = cert.provenance["separator"]
        table = CosetTable(cert.approx.rank, separator["index"],
                           tuple(map(tuple, separator["images"])))
        elements = [inverse(row) for row in image_group(table.inverses, table.size).rows]
        assert cert.approx.size == len(elements), r["fixture"]
        for image, g in zip(cert.approx.images, table.inverses):
            assert [elements[t] for t in image] == [compose(g, s) for s in elements]
        labels = cert.provenance["point_labels"]
        assert list(cert.witness.pi) == [tuple(inverse(s)[c] for c in labels) for s in elements]
    print(f"criterion 2: PASS -- {len(built['results'])} certificates in closed form")


def random_reduced_word(rng, rank, max_len):
    length = rng.randint(1, max_len)
    letters = []
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for _ in range(length):
        options = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(rng.choice(options))
    return Word(tuple(letters), rank)


def test_criterion_3_hall_separation_randomized():
    rng = random.Random(2026)
    started = time.perf_counter()
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 5000
        rank = rng.choice([2, 3])
        gens = [random_reduced_word(rng, rank, 6) for _ in range(rng.randint(0, 3))]
        graph = core_graph(gens, rank)
        avoid = [random_reduced_word(rng, rank, 6) for _ in range(rng.randint(1, 3))]
        if any(contains(graph, w) for w in avoid):
            continue  # precondition avoid cap H = empty must hold
        table = hall_completion(graph, avoid)
        for g in gens:
            assert coset_of(table, g) == 0  # H <= K
        for w in avoid:
            assert coset_of(table, w) != 0  # K cap avoid = empty
        done += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 3: PASS -- 50/50 separations in {elapsed:.2f}s "
          f"({attempts - 50} resamples)")


def test_criterion_4_conjugation_pipeline(tmp_path):
    out = str(tmp_path / "conj.json")
    rc, text = run_cli(["conj-demo", "--out", out, "--json"])
    payload = json.loads(text)
    assert rc == 0
    assert payload["verdict"] == "accept"
    assert payload["diagonal_phi_agreement"] is True
    rc, _ = run_cli(["verify", out])
    assert rc == 0

    # the biregular certificate restricted along the diagonal carries the
    # same phi as the conjugation certificate, generator by generator
    a, b = parse_word("a", 2), parse_word("b", 2)
    E = [parse_word(t, 2) for t in ("1", "a", "b", "baB")]
    diag = ((a, a), (b, b))
    bireg = approximate(BiregularAction(2), [(a, a), (b, b)], E)
    restricted = restrict_certificate(bireg, diag, [a, b])
    conj = approximate(RestrictedAction(BiregularAction(2), diag), [a, b], E)
    for g in (a, b):
        assert restricted.approx.permutation_of(g) == conj.approx.permutation_of(g)
    print("criterion 4: PASS -- conjugation certificate exact, diagonal phi agrees")


def test_criterion_5_oracle_equivalence():
    certs = oracle_cases()
    assert len(certs) >= 20
    results = oracle_agreement(certs)
    disagreements = [r for r in results if not r["agreed"]]
    assert disagreements == []
    print(f"criterion 5: PASS -- {len(results)}/{len(results)} oracle agreements")


def test_criterion_6_mutation_kill_rate(built, tmp_path):
    bases = []
    for r in built["results"][:3]:
        bases.append(json.loads(open(r["cert_path"]).read()))
    from soficert.harness import mutate_certificate

    rng = random.Random(17)
    killed = 0
    produced = 0
    clause_names = {"carrier_permutations", "unital", "multiplicative",
                    "cardinality", "injectivity", "equivariance"}
    while produced < 24:
        m = mutate_certificate(bases[produced % len(bases)], rng)
        if m is None:
            continue
        mutated, kind, _ = m
        produced += 1
        path = tmp_path / f"mut{produced}.json"
        path.write_text(json.dumps(mutated))
        rc, text = run_cli(["verify", str(path), "--json"])
        report = json.loads(text)
        assert rc == 1, (kind, report)
        assert report["verdict"] == "reject"
        assert report["first_failure"] in clause_names
        killed += 1
    assert produced >= 20 and killed == produced
    print(f"criterion 6: PASS -- {killed}/{produced} mutations rejected with named clause")


def test_criterion_7_separation_target_sanity():
    avoid_total = contain_total = 0
    for rank, sub, F, E in FIXTURES:
        gens = [parse_word(t, rank) for t in sub]
        spec = CosetAction(rank, tuple(gens))
        graph = core_graph(gens, rank)
        t_avoid, t_contain = separation_targets(
            spec, [parse_word(t, rank) for t in F], [parse_word(t, rank) for t in E]
        )
        for w in t_avoid:
            assert not contains(graph, w), (sub, w.text())
        for w in t_contain:
            assert contains(graph, w), (sub, w.text())
        avoid_total += len(t_avoid)
        contain_total += len(t_contain)
    assert avoid_total > 0 and contain_total > 0
    print(f"criterion 7: PASS -- {avoid_total} avoid-targets outside H, "
          f"{contain_total} contain-targets inside H")
