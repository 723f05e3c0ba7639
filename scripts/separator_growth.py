"""Tabulate separator index and carrier size across a subgroup family.

For each subgroup the table shows the Hall separator's index n, the
carrier size (the permutation image group, a subgroup of Sym(n)) against
n! = |Sym(n)|, and the build + verify wall time.
Everything must verify exactly; a reject in the last column would be a
bug.

Usage: python3 scripts/separator_growth.py [--rank 2]
"""

import argparse
import math
import time

from soficert.actions import CosetAction
from soficert.builder import approximate
from soficert.verifier import verify_certificate
from soficert.words import parse_word

FAMILIES = {
    2: [
        ((), ["1", "a"]),
        (("a",), ["1", "b"]),
        (("aa", "b"), ["1", "a"]),
        (("ab", "ba"), ["1", "a"]),
        (("abA",), ["1", "a"]),
        (("aba",), ["1", "a", "ab"]),
        (("aabb",), ["1", "a", "b"]),
        (("abab", "bb"), ["1", "a"]),
    ],
    3: [
        ((), ["1", "a"]),
        (("a", "b"), ["1", "c"]),
        (("ab", "c"), ["1", "a"]),
        (("aa", "b", "c"), ["1", "a"]),
        (("abc",), ["1", "a", "b"]),
    ],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=2, choices=sorted(FAMILIES))
    args = parser.parse_args()

    F = [parse_word(chr(96 + i), args.rank) for i in range(1, args.rank + 1)]
    print(f"{'subgroup':<22} {'index':>5} {'core |A|':>9} {'n!':>9} "
          f"{'saving':>7} {'time':>8}  verdict")
    for gens, points in FAMILIES[args.rank]:
        spec = CosetAction(args.rank, tuple(parse_word(t, args.rank) for t in gens))
        E = [parse_word(t, args.rank) for t in points]
        started = time.perf_counter()
        cert = approximate(spec, F, E)
        report = verify_certificate(cert)
        elapsed = time.perf_counter() - started
        n = cert.provenance["separator"]["index"]
        sym = math.factorial(n)
        label = "<" + ", ".join(gens) + ">" if gens else "<trivial>"
        verdict = "accept" if report.accepted else "REJECT"
        print(f"{label:<22} {n:>5} {cert.approx.size:>9} {sym:>9} "
              f"{sym // cert.approx.size:>6}x {elapsed:>7.3f}s  {verdict}")


if __name__ == "__main__":
    main()
