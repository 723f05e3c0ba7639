"""The benchmark's job corpora and the seeded inputs derived from them.

A workload is a list of jobs run in order, once per pass.  A job may
carry an ``approx`` config (built, then its certificate verified and a
mutated copy of it verified), a ``subgroup`` argument list (the
subgroup graph and Hall separator inspected), or both.  The fixed
corpora ignore the seed; the seed drives only the random words of
``fold`` and, in ``mutate``, where each mutation lands.

This module imports nothing from soficert: the inputs are plain JSON
configs and command-line words, as a user would write them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# rank, subgroup generators, E; F is every generator of the rank
FIXTURES = [
    (2, [], ["1", "a"]),
    (2, ["a"], ["1", "b"]),
    (2, ["aa", "b"], ["1", "a"]),
    (2, ["ab", "ba"], ["1", "a"]),
    (2, ["abA"], ["1", "a"]),
    (2, ["aa", "ab"], ["1", "a"]),
    (2, ["a", "bb"], ["1", "b"]),
    (2, ["aba"], ["1", "a", "ab"]),
    (3, [], ["1", "a"]),
    (3, ["a", "b"], ["1", "c"]),
    (3, ["ab", "c"], ["1", "a"]),
    (3, ["aa", "b", "c"], ["1", "a"]),
]

# the three stretch jobs of the roadmap, each over the image-group cap
STRETCH = [
    ("trivial-e7", [], ["1", "a", "b", "ab", "ba", "aa", "bb"]),
    ("abAB-e5", ["abAB"], ["1", "a", "b", "ab", "aab"]),
    ("aabb-e6", ["aabb"], ["1", "a", "b", "ab", "ba", "bb"]),
]
REFUSAL_CORE_CAP = 10**5

CASCADE_N = (100, 200, 300)
CASCADE_BUILD_N = 200
AVOID_WORD_LENGTH = 200


@dataclass(frozen=True)
class Job:
    name: str
    approx: dict | None = None
    subgroup: tuple[str, ...] | None = None


def _letters(rank: int) -> list[str]:
    return [chr(97 + i) for i in range(rank)]


def _coset_config(rank, subgroup, E, F=None, caps=None) -> dict:
    config = {
        "action": {"kind": "coset", "rank": rank, "subgroup": list(subgroup)},
        "F": list(F) if F is not None else _letters(rank),
        "E": list(E),
    }
    if caps:
        config["caps"] = dict(caps)
    return config


def _reduce(text: str) -> str:
    out: list[str] = []
    for ch in text:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _differences(E) -> list[str]:
    """x^-1 y over ordered pairs of distinct points of E: the words a
    separator must avoid for E's points to get distinct labels."""
    words: list[str] = []
    for x in E:
        for y in E:
            w = _reduce(_inverse_text(x.replace("1", "")) + y.replace("1", ""))
            if x != y and w not in words:
                words.append(w)
    return words


def _inspect(rank, subgroup, E) -> tuple[str, ...]:
    """Subgroup graph plus a Hall separator avoiding E's differences,
    which lie outside H because E's points name distinct cosets."""
    return ("--rank", str(rank), "--gens", ",".join(subgroup),
            "--avoid", ",".join(_differences(E)))


def _coset_job(name, rank, subgroup, E, F=None, caps=None) -> Job:
    return Job(name, _coset_config(rank, subgroup, E, F, caps), _inspect(rank, subgroup, E))


def _biregular_job(name, E) -> Job:
    """The inspection is the Hall separator of E's differences over the
    trivial subgroup, the builder's first try at a finite quotient."""
    F = [["a", "1"], ["b", "1"], ["1", "a"], ["1", "b"]]
    return Job(name, {"action": {"kind": "biregular", "rank": 2}, "F": F, "E": list(E)},
               _inspect(2, [], E))


def _ball(rank: int, radius: int) -> list[str]:
    """Reduced words of length <= radius, in inverse-pair notation."""
    letters = _letters(rank) + [l.upper() for l in _letters(rank)]
    words, layer = ["1"], [""]
    for _ in range(radius):
        layer = [w + l for w in layer for l in letters if not w or w[-1] != l.swapcase()]
        words += layer
    return words


def _reduced_word(rng: random.Random, rank: int, length: int, positive_last=False) -> str:
    """Random reduced word; ``positive_last`` restricts the final letter to
    the positive generators (so appending one never cancels)."""
    letters = _letters(rank) + [l.upper() for l in _letters(rank)]
    out: list[str] = []
    while len(out) < length:
        pool = letters if len(out) < length - 1 or not positive_last else _letters(rank)
        l = rng.choice(pool)
        if out and out[-1] == l.swapcase():
            continue
        out.append(l)
    return "".join(out)


def _inverse_text(w: str) -> str:
    return "".join(c.swapcase() for c in reversed(w))


def small_jobs(seed: int) -> list[Job]:
    jobs = [_coset_job(f"fixture-{i}", rank, sub, E) for i, (rank, sub, E) in enumerate(FIXTURES)]
    jobs.append(_coset_job("abab-bb", 2, ["abab", "bb"], ["1", "a"]))
    jobs.append(Job("conjugation", {
        "action": {"kind": "restricted", "inner": {"kind": "biregular", "rank": 2},
                   "images": [["a", "a"], ["b", "b"]]},
        "F": ["a", "b"],
        "E": ["1", "a", "b", "baB"],
    }))
    jobs.append(_biregular_job("biregular-e5", ["1", "a", "b", "ab", "ba"]))
    return jobs


def large_carrier(seed: int) -> list[Job]:
    return [
        _coset_job("aabb-f5", 2, ["aabb"], ["1", "a", "b"], F=["a", "b", "ab", "ba", "aB"]),
        _biregular_job("biregular-ball2", _ball(2, 2)),
    ]


def fold(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n in CASCADE_N:
        # a^n, a^(n+1), b^n, b^(n-1) generate all of F_2: the graph folds to one vertex
        gens = ["a" * n, "a" * (n + 1), "b" * n, "b" * (n - 1)]
        approx = _coset_config(2, gens, ["1"]) if n == CASCADE_BUILD_N else None
        jobs.append(Job(f"cascade-{n}", approx, ("--rank", "2", "--gens", ",".join(gens))))
    # the avoid words share the prefix w with the generator, so they fold all along it
    w = _reduced_word(rng, 2, AVOID_WORD_LENGTH, positive_last=True)
    avoid = [w + "b", w + "ab", w + "ba"]
    jobs.append(Job("conjugate-avoid", None, (
        "--rank", "2", "--gens", w + "a" + _inverse_text(w), "--avoid", ",".join(avoid))))
    # random words share almost no prefix, so almost nothing folds; the
    # generators have even length and the avoid words odd length, so no
    # avoid word lies in the subgroup
    gens = [_reduced_word(rng, 2, 2 * rng.randint(25, 35)) for _ in range(3)]
    avoid = [_reduced_word(rng, 2, 2 * rng.randint(25, 35) + 1) for _ in range(3)]
    jobs.append(Job("random-hall", None, (
        "--rank", "2", "--gens", ",".join(gens), "--avoid", ",".join(avoid))))
    return jobs


def refusal(seed: int) -> list[Job]:
    caps = {"core_cap": REFUSAL_CORE_CAP}
    jobs = []
    for name, sub, E in STRETCH:
        jobs.append(_coset_job(name, 2, sub, E, caps=caps))
        jobs.append(_coset_job(f"{name}-fallback", 2, sub, E[:2], caps=caps))
    return jobs


BUILDERS = {
    "small-jobs": small_jobs,
    "large-carrier": large_carrier,
    "fold": fold,
    "refusal": refusal,
}


# ---------------------------------------------------------------------------
# mutations that break one verifier clause by construction

EXPECTED_CLAUSE = {
    "generator-duplicate": "carrier_permutations",
    "pi-duplicate": "injectivity",
    "s-drop": "cardinality",
}


def mutate(data: dict, rng: random.Random) -> tuple[dict, str, str]:
    """One single-entry mutation of a certificate dict, in place.

    A generator image with a duplicated entry is no permutation; a pi row
    with a duplicated entry is not injective; dropping a point from S at
    epsilon 0 leaves |S| < |A|.  Returns (data, kind, description)."""
    kinds = []
    if data["carrier_size"] >= 2 and data["generator_images"]:
        kinds.append("generator-duplicate")
    if len(data["E"]) >= 2 and data["pi"]:
        kinds.append("pi-duplicate")
    if data["epsilon"] == "0" and data["S"]:
        kinds.append("s-drop")
    kind = rng.choice(kinds)
    if kind == "generator-duplicate":
        g = rng.randrange(len(data["generator_images"]))
        i, j = rng.sample(range(data["carrier_size"]), 2)
        data["generator_images"][g][i] = data["generator_images"][g][j]
        return data, kind, f"generator_images[{g}][{i}] := [{j}]"
    if kind == "pi-duplicate":
        p = rng.randrange(len(data["pi"]))
        i, j = rng.sample(range(len(data["E"])), 2)
        data["pi"][p][i] = data["pi"][p][j]
        return data, kind, f"pi[{p}][{i}] := [{j}]"
    p = rng.randrange(len(data["S"]))
    s = data["S"].pop(p)
    data["pi"].pop(p)
    return data, kind, f"dropped s={s} from S"
