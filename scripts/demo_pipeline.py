"""Walk the whole pipeline once, printing every intermediate object.

The running example: the coset action of F_2 on cosets of H = <a>,
with F = {a, b} and E = {H, bH}.  Stages: core graph, the pairwise
differences of E that the separator must avoid, Hall completion,
permutation image group with its stabilizer chain and rung sizes, the
finished certificate, and the independent verifier's report.

Usage: python3 scripts/demo_pipeline.py
"""

import argparse
import json
import math

from soficert.actions import CosetAction
from soficert.builder import approximate, certificate_to_dict, pairwise_differences
from soficert.quotients import coset_of, hall_completion, image_group, stabilizer_chain
from soficert.stallings import core_graph
from soficert.verifier import verify_certificate
from soficert.words import parse_word


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    w = lambda t: parse_word(t, 2)
    spec = CosetAction(2, (w("a"),))
    F = [w("a"), w("b")]
    E = [w("1"), w("b")]

    print("== subgroup graph for H = <a> ==")
    graph = core_graph([w("a")], 2)
    print(f"vertices: {graph.vertex_count}")
    for u, letter, v in sorted(graph.edges):
        print(f"  {u} -{chr(96 + letter)}-> {v}")

    print("\n== pairwise differences x^-1 y of E = {H, bH} ==")
    avoid = pairwise_differences(E)
    print(f"avoid (must land off the separator): {[x.text() for x in avoid]}")

    print("\n== Hall completion ==")
    table = hall_completion(graph, avoid)
    print(f"separator index: {table.size}")
    for i, images in enumerate(table.images):
        print(f"  generator {chr(97 + i)}: {list(images)}")
    for x in avoid:
        print(f"  coset of {x.text()!r}: {coset_of(table, x)} (nonzero = avoided)")

    print("\n== permutation image group ==")
    base, orbits = stabilizer_chain(table.inverses, table.size)
    rungs = [math.prod(orbits[:k]) for k in range(1, len(orbits) + 1)]
    print(f"stabilizer chain base: {list(base)}, basic orbit lengths: {list(orbits)}")
    print(f"rung sizes: {rungs} (rung k acts on the orbit of the first k base points; "
          f"the last is the group acting on itself)")
    group = image_group(table.inverses, table.size, order=rungs[-1])
    print(f"closure size: {len(group)} (vs |Sym({table.size})| = {math.factorial(table.size)})")

    print("\n== certificate ==")
    cert = approximate(spec, F, E)
    print(json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True))

    print("\n== verifier report ==")
    print(verify_certificate(cert).to_text())


if __name__ == "__main__":
    main()
