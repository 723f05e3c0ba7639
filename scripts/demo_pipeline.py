"""Walk the whole pipeline once, printing every intermediate object.

The running example: the coset action of F_2 on cosets of H = <a>,
with F = {a, b} and E = {H, bH}.  Stages: core graph, separation
targets, Hall completion, permutation image group, the finished
certificate, and the independent verifier's report.

Usage: python3 scripts/demo_pipeline.py
"""

import argparse
import json
import math

from soficert.actions import CosetAction
from soficert.builder import approximate, separation_targets
from soficert.certificate import certificate_to_dict
from soficert.quotients import coset_of, hall_completion, image_group
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

    print("\n== separation targets for E = {H, bH}, F = {a, b} ==")
    t_avoid, t_contain = separation_targets(spec, F, E)
    print(f"avoid   (must land off H): {[x.text() for x in t_avoid]}")
    print(f"contain (must stay in H):  {[x.text() for x in t_contain]}")

    print("\n== Hall completion ==")
    table = hall_completion(graph, t_avoid)
    print(f"separator index: {table.size}")
    for i, images in enumerate(table.images):
        print(f"  generator {chr(97 + i)}: {list(images)}")
    for x in t_avoid:
        print(f"  coset of {x.text()!r}: {coset_of(table, x)} (nonzero = avoided)")

    print("\n== permutation image group ==")
    group = image_group(table.inverses, table.size)
    print(f"closure size: {len(group)} (vs |Sym({table.size})| = {math.factorial(table.size)})")

    print("\n== certificate ==")
    cert = approximate(spec, F, E)
    print(json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True))

    print("\n== verifier report ==")
    print(verify_certificate(cert).to_text())


if __name__ == "__main__":
    main()
