"""Every small rank-2 coset job, built and pinned as a whole.

H runs over the subgroups generated by at most two reduced words of
length 1 or 2 (137 generator sets, the trivial H included), E over {1}
plus one or two of a, b, A, B (10 windows), and F = {a, b}.  A job
whose H joins two of E's points is refused at canonicalize; every
other job builds a certificate, which must verify.  The refusal count,
the carrier sizes and one SHA-256 over the written certificates pin the
sweep, so a change to any separator, carrier or witness shows here.
Each job also has a bound, its carrier size when the base-orbit ladder
was made: a smaller separator or rung may shrink a carrier below its
bound, never above it, and a job refused then is still refused.

The ladder is checked on the same windows against the brute-force
oracle, on every rung small enough for it, and against the stabilizer
chain, whose basic orbit lengths must give each rung's size.
"""

import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import soficert.builder as builder
from soficert.actions import CosetAction
from soficert.builder import StageError, approximate, write_certificate
from soficert.harness import brute_force_witness, oracle_agreement, oracle_cases
from soficert.quotients import stabilizer_chain
from soficert.verifier import verify_certificate
from soficert.words import parse_word

LETTERS = "abAB"
INVERSE = dict(zip(LETTERS, "ABab"))
WORDS = list(LETTERS) + [x + y for x in LETTERS for y in LETTERS if y != INVERSE[x]]
SUBGROUPS = [sub for k in range(3) for sub in itertools.combinations(WORDS, k)]
WINDOWS = [("1",) + extra for k in (1, 2) for extra in itertools.combinations(LETTERS, k)]

BUILT, REFUSED = 662, 708
CARRIER_SIZES = {2: 136, 3: 148, 4: 6, 5: 16, 6: 64, 12: 6, 30: 18, 42: 1, 60: 44, 120: 190,
                 210: 3, 360: 12, 720: 18}
CARRIER_TOTAL = 45_208
DIGEST = "a1bac3a9d3c6da31d8a6e73a6075aa07aa56073cb886af06ee4f829d76d3d8f3"

# each job's bound, one character a job in sweep order and one group of
# ten windows a subgroup; "." is a job refused at canonicalize
SIZE_OF = dict(zip(".abcdefghijklm", (0, 2, 3, 4, 5, 6, 12, 30, 42, 60, 120, 210, 360, 720)))
BOUNDS = [SIZE_OF[c] for c in "".join("""
bbbbkdhkdk .b.b....d. b.b..d.... .b.b....d. b.b..d.... afafm.gmgg
beebjjl.jj bbeeljjjj. bbbbji.lji cacamgmm.m bbeeljjjj. bbbb.igigl
afafm.gmgg bbbbji.lji bbbb.igigl beebjjl.jj cacamgmm.m ..........
.b.b....d. .......... .b.b....d. .......... .......... ..........
.a.a...... .......... .......... .b.b....d. .......... ..........
.......... .a.a...... .......... b.b..d.... a.a....... ..........
.......... .......... b.b..d.... .......... .......... a.a.......
.......... .......... .......... b.b..d.... .......... .b.b....d.
.......... .......... .......... .a.a...... .......... ..........
.b.b....d. .......... .......... .......... .a.a...... a.a.......
.......... .......... .......... b.b..d.... .......... ..........
a.a....... .......... .......... .......... b.b..d.... aaab..j.jj
abaaj..jj. abaaj..jj. eeeej.jj.j abaaj..jj. aaab..j.jj afafm.gmgg
abaaj..jj. aaab..j.jj aaab..j.jj eeeej.jj.j baaajjj... bbbbii..ii
baaajjj... baaajjj... aaab..j.jj aaab..j.jj bbbbii..ii aaab..j.jj
beebjjl.jj baaajjj... abaaj..jj. baaajjj... bbeeljjjj. bbbb.iiii.
abaaj..jj. abaaj..jj. bbbb.iiii. baaajjj... baaajjj... eebe.j.j.j
abaaj..jj. eebe.j.j.j abaaj..jj. bbbbji.lji eebe.j.j.j bbbbii..ii
eebe.j.j.j baaajjj... eebe.j.j.j eeeej.jj.j eebe.j.j.j eebe.j.j.j
baaajjj... cacamgmm.m bbbb.iiii. abaaj..jj. abaaj..jj. bbbb.iiii.
baaajjj... baaajjj... aaab..j.jj eebe.j.j.j bbbb.igigl aaab..j.jj
eebe.j.j.j abaaj..jj. aaab..j.jj aaab..j.jj eeeej.jj.j eebe.j.j.j
bbbbii..ii eebe.j.j.j aaab..j.jj eebe.j.j.j baaajjj...
""".split())]


def test_rank_two_coset_sweep(tmp_path):
    assert (len(SUBGROUPS), len(WINDOWS), len(BOUNDS)) == (137, 10, 1370)
    w2 = lambda t: parse_word(t, 2)
    F = [w2("a"), w2("b")]
    path = str(tmp_path / "cert.json")
    digest = hashlib.sha256()
    sizes: Counter = Counter()
    refused = 0
    bounds = iter(BOUNDS)
    for sub in SUBGROUPS:
        spec = CosetAction(2, tuple(map(w2, sub)))
        for window, bound in zip(WINDOWS, bounds):
            try:
                cert = approximate(spec, F, [w2("" if t == "1" else t) for t in window])
            except StageError as exc:
                assert bound == 0, (sub, window, str(exc))
                assert (exc.stage, str(exc.cause)) == ("canonicalize", "duplicate points in E")
                refused += 1
                continue
            assert verify_certificate(cert).accepted, (sub, window)
            assert 0 < cert.approx.size <= bound, (sub, window, cert.approx.size, bound)
            sizes[cert.approx.size] += 1
            write_certificate(cert, path)
            with open(path, "rb") as f:
                digest.update(f.read())
    assert (sum(sizes.values()), refused) == (BUILT, REFUSED)
    assert dict(sizes) == CARRIER_SIZES
    assert sum(size * count for size, count in sizes.items()) == CARRIER_TOTAL
    assert digest.hexdigest() == DIGEST


def orbit_size(generators, base):
    """Size of the orbit of the tuple ``base``, listed tuple by tuple."""
    seen = {tuple(base)}
    frontier = list(seen)
    while frontier:
        frontier = [v for v in {tuple(g[x] for x in u) for u in frontier for g in generators}
                    if v not in seen]
        seen.update(frontier)
    return len(seen)


def test_ladder_agrees_with_the_oracle_and_the_chain(monkeypatch):
    # every rung the ladder lists has the size the chain's basic orbit
    # lengths predict; every rung it rejects that the oracle can search
    # has no witness with up to 5 labels, and every chosen carrier the
    # oracle can search has one
    listed, tried = [], []

    def base_orbit(generators, degree, base, size):
        listed.append((generators, degree, base, size))
        return orbit(generators, degree, base, size)

    def class_witness(approx, columns, width):
        witness = decide(approx, columns, width)
        tried.append((approx, witness))
        return witness

    orbit, decide = builder.base_orbit, builder.class_witness
    monkeypatch.setattr(builder, "base_orbit", base_orbit)
    monkeypatch.setattr(builder, "class_witness", class_witness)
    w2 = lambda t: parse_word(t, 2)
    F = [w2("a"), w2("b")]
    counts = Counter()
    for sub in SUBGROUPS:
        spec = CosetAction(2, tuple(map(w2, sub)))
        for window in WINDOWS:
            start = len(tried)
            try:
                cert = approximate(spec, F, [w2("" if t == "1" else t) for t in window])
            except StageError:
                continue
            for approx, witness in tried[start:]:
                if witness is None and approx.size <= 8:
                    assert brute_force_witness(cert.action, approx, cert.F, cert.E, Fraction(0),
                                               max_b=5) is None, (sub, window, approx.size)
                    counts["failed"] += 1
            if cert.approx.size <= 8 and len(cert.witness.b_labels) <= 5:
                assert oracle_agreement([cert])[0]["agreed"], (sub, window)
                counts["chosen"] += 1
    for generators, degree, base, size in listed:
        orbits = stabilizer_chain(generators, degree)[1]
        assert size == math.prod(orbits[:len(base)]) == orbit_size(generators, base)
    assert len(listed) == len(tried) == 974
    assert counts == {"failed": 356, "chosen": 370}
    assert len(oracle_cases()) == 26
