"""Certificate construction.

Every build here is exact: the produced map on generators extends to a
genuine homomorphism into Sym(A), S is all of A, and the orbit witness
satisfies its equivariance equalities on the nose, so the claimed
epsilon is always 0.

Each construction is a finite group acting on itself by left
translation, which is one orbit whose point 0 is the identity, and one
routine, :func:`orbit_witness`, fills pi for all of them: it walks the
carrier from point 0, whose row is the identity, and sets
row(phi(g)s) = row(s) . g_B^-1, keeping the columns at E's labels.

* core — for a separating table K of index n (left cosets labeled as in
  :mod:`soficert.quotients`), A is the group Q generated by the coset
  permutations, the quotient by the normal core of K; g acts by left
  composition with the permutation by which g left-multiplies the
  cosets; B is the n cosets and the row of s is s^-1.  The closure that
  lists Q keeps every product it forms, and phi is read off its move
  rows.
* biregular — G x G acting on G uses the product carrier Q x Q for a
  finite quotient Q in which the pairwise point differences survive;
  B is Q, moved by left translations and by q -> q a^-1.

Infinite-index coset actions reach the finite-index construction
through a Hall completion that separates finitely many coset relations;
E's points are then labeled by their left cosets of the completion.

The one size setting is ``core_cap``; the biregular quotient search is
bounded by the constants below.  B is range(|B|), stored in a
certificate file as distinct integers.
"""

from __future__ import annotations

import contextlib
import itertools
import reprlib
from collections import deque
from fractions import Fraction
from typing import Sequence

from .actions import (
    ActionSpec,
    BiregularAction,
    CosetAction,
    GroupElement,
    RestrictedAction,
    act,
    action_to_json,
    apply_images,
    canonical_point,
    check_element,
)
from .certificate import Certificate, OrbitWitness, SoficApproximation
from .permutations import _gather, compose, identity_perm, inverse
from .quotients import (
    BYTES_DEGREE_MAX,
    DEFAULT_CORE_CAP,
    CoreTooLargeError,
    CosetTable,
    ImageGroup,
    byte_table,
    coset_of,
    hall_completion,
    image_group,
    left_coset_of,
    order_bound,
)
from .stallings import StallingsGraph, core_graph
from .words import Word, invert, multiply

DEFAULT_EPSILON = Fraction(0)

# a biregular carrier Q x Q stays within 10**5 points
QUOTIENT_ORDER_MAX = int(100_000**0.5)
# the small-quotient search tries the generator tuples, up to
# conjugacy, of each degree up to this one, setting at most
# QUOTIENT_SEARCH_MAX generators per degree: enough for every tuple at
# rank 3 or less (19 488 at degree 5)
QUOTIENT_DEGREE_MAX = 5
QUOTIENT_SEARCH_MAX = 25_000


class SeparatorInvalidError(ValueError):
    """The supplied table does not separate the required words."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for CLI reporting."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage}: {cause}")


# ---------------------------------------------------------------------------
# separation targets


def pairwise_differences(points: Sequence[Word]) -> list[Word]:
    """x^-1 y over ordered pairs of distinct points, each word once, in the
    order the pairs are first met."""
    seen: set[tuple[int, ...]] = set()
    out: list[Word] = []
    for x in points:
        for y in points:
            if x.letters != y.letters:
                w = multiply(invert(x), y)
                if w.letters not in seen:
                    seen.add(w.letters)
                    out.append(w)
    return out


def contains(graph: StallingsGraph, w: Word) -> bool:
    """Subgroup membership: does ``w`` read a closed path at the basepoint?"""
    if w.rank != graph.rank:
        raise ValueError(f"word rank {w.rank} != graph rank {graph.rank}")
    steps = graph._steps
    state = 0
    for l in w.letters:
        state = steps.get((state, l))
        if state is None:
            return False
    return state == 0


def separation_targets(
    spec: CosetAction, F: Sequence[Word], E: Sequence[Word]
) -> tuple[list[Word], list[Word]]:
    """Words a separating subgroup must avoid / contain.

    T_avoid collects sigma(x)^-1 sigma(y) over distinct points of E (none
    of which lie in H), T_contain collects sigma(alpha(g^-1)x)^-1 g^-1 sigma(x)
    over F x E (all of which lie in H), each word once in the order first
    met.  Both facts are asserted here; a failure would mean the coset
    algebra itself is broken.
    """
    if not isinstance(spec, CosetAction):
        raise TypeError("separation targets are defined for coset actions")
    sigma = [canonical_point(spec, x) for x in E]
    if len({w.letters for w in sigma}) != len(sigma):
        raise ValueError("duplicate points in E")
    graph = spec.graph
    t_avoid = pairwise_differences(sigma)
    for w in t_avoid:
        if contains(graph, w):
            raise AssertionError(
                f"separation sanity violated: {w.text()} in H for distinct cosets"
            )
    t_contain: list[Word] = []
    seen: set[tuple[int, ...]] = set()
    for g in F:
        for x in sigma:
            y = act(spec, invert(g), x)
            w = multiply(multiply(invert(y), invert(g)), x)
            if not contains(graph, w):
                raise AssertionError(
                    f"separation sanity violated: {w.text()} escapes H"
                )
            if w.letters not in seen:
                seen.add(w.letters)
                t_contain.append(w)
    return t_avoid, t_contain


# ---------------------------------------------------------------------------
# the one witness routine and the constructions that feed it


def orbit_witness(
    images: Sequence[Sequence[int]],
    b_images: Sequence[Sequence[int]],
    labels: Sequence[int],
) -> OrbitWitness:
    """Orbit witness of an exact homomorphism, propagated along the generators.

    ``images[i]`` and ``b_images[i]`` are generator i's permutations of
    the carrier and of the label set B = range(|B|); ``labels`` are the
    B labels of E's points.  The carrier is a finite group acting on
    itself by left translation: one generator orbit, whose point 0 is
    the identity with the identity row B -> B.  It is walked
    breadth-first from point 0; the step from s to phi(g)s sets
    row(phi(g)s) = row(s) . g_B^-1, which is the equivariance identity
    itself.  A point the walk leaves unfilled raises AssertionError.  A
    point keeps only its row's entries at ``labels``; a full row lives
    only while its point is queued.  Both products are built before the
    walk.  For |B| at most ``BYTES_DEGREE_MAX`` a queued row is its byte
    table, and row . g_B^-1 is one ``translate`` of g_B^-1's byte table
    by it; above, a row is a tuple and the move a gather.  Either way
    E's labels are picked by a gather, which gives a tuple of ints from
    bytes as from a tuple.
    """
    b_size = len(b_images[0])
    if b_size <= BYTES_DEGREE_MAX:
        encode, moves = byte_table, [byte_table(inverse(p)).translate for p in b_images]
    else:
        encode, moves = tuple, [_gather(inverse(p)) for p in b_images]
    steps = list(zip(images, moves))
    pick = _gather(labels)
    pi: list = [None] * len(images[0])
    row = encode(identity_perm(b_size))
    pi[0] = pick(row)
    queue = deque([(0, row)])
    take, put = queue.popleft, queue.append
    while queue:
        s, row = take()
        for image, move in steps:
            u = image[s]
            if pi[u] is None:
                moved = move(row)
                pi[u] = pick(moved)
                put((u, moved))
    if None in pi:
        raise AssertionError(f"carrier point {pi.index(None)} is not in the orbit of point 0")
    return OrbitWitness(tuple(range(len(pi))), tuple(range(b_size)), tuple(pi))


def finite_index_witness(
    table: CosetTable, labels: Sequence[int], core_cap: int = DEFAULT_CORE_CAP
) -> tuple[SoficApproximation, OrbitWitness]:
    """Exact approximation of the left-multiplication action on the cosets
    of ``table``, with its witness at the cosets ``labels``: A is the
    group the coset permutations generate, acting on itself by left
    composition, B is all n cosets and the row of a carrier point s is
    s^-1.  Generator i moves the cosets by ``table.inverses[i]``, so A is
    closed under those maps and the images are the closure's move rows.
    """
    group = image_group(table.inverses, table.size, core_cap)
    approx = SoficApproximation("free", table.rank, len(group), group.moves)
    return approx, orbit_witness(group.moves, table.inverses, labels)


def _separating_quotient(
    rank: int, targets: Sequence[Word]
) -> tuple[CosetTable, ImageGroup, str]:
    """Finite quotient of F_rank where every target survives.

    The quotient map sends w to its left multiplication of the table's
    cosets: the fold of its letters' images, generator i moving the cosets
    by ``table.inverses[i]``.  Returns the table, the group its walks
    generate and the route that found it.
    First tries the normal core of a Hall completion separating the
    targets.  If its image group is above ``QUOTIENT_ORDER_MAX``, searches
    the generator tuples of degree 2 to ``QUOTIENT_DEGREE_MAX`` depth
    first, in lexicographic order, and returns from the first degree
    where a tuple separates the lexicographically first tuple of least
    group order.  Tuples are sized by ``order_bound`` capped one below
    the least order found so far, so a larger group's chain stops early.
    A prefix is dropped once it kills a target that uses none of the
    later generators, or once its group reaches the least order, since
    every extension generates at least that group.

    Conjugating a whole tuple by one permutation relabels the points and
    keeps both the order and the surviving targets, and the first tuple
    of least order is least among its conjugates.  So the search takes
    generator 1 as the least permutation of each conjugacy class (cycle
    type) and generator 2 least among its conjugates by the centralizer
    of generator 1; later generators run over all permutations.

    Each degree sets at most ``QUOTIENT_SEARCH_MAX`` generators.  That
    covers every tuple at rank 3 or less, so there the rule above is
    exact.  At a higher rank the search may stop early: it then returns
    the least order among the tuples it reached, or, if none separated,
    goes on to the next degree.

    The search runs on a table of the degree's products, made once per
    degree with one ``bytes.translate`` for each product.
    """

    def quotient(table: CosetTable, route: str):
        return table, image_group(table.inverses, table.size, QUOTIENT_ORDER_MAX), route

    try:
        return quotient(hall_completion(core_graph([], rank), list(targets)), "hall-core")
    except CoreTooLargeError:
        pass

    # A candidate runs on the indices of the degree's permutations in
    # sorted order, so index order is lexicographic order and the identity
    # is 0.  A target w survives when its walk, a product of the
    # candidate's permutations and their inverses, is not the identity (w
    # acts by the walk of w^-1, the inverse permutation).  A walk is
    # tested as soon as the last generator it uses is set, and no later
    # generator changes its value.  Every target is tested before a tuple
    # is accepted, so moving the one that rejected the last prefix to the
    # front of its list changes only the cost of the search.
    walks_at: list[list[list[int]]] = [[] for _ in range(rank)]
    for w in targets:
        walk = [l - 1 if l > 0 else rank - l - 1 for l in w.letters]
        walks_at[max(i % rank for i in walk)].append(walk)
    cut: list[str] = []

    for degree in range(2, QUOTIENT_DEGREE_MAX + 1):
        perms = sorted(itertools.permutations(range(degree)))
        encoded = list(map(bytes, perms))
        index = {p: i for i, p in enumerate(encoded)}
        # mul[i][j] is the index of perms[i] . perms[j]
        mul = [[index[q.translate(table)] for q in encoded] for table in map(byte_table, perms)]
        inv = [row.index(0) for row in mul]
        steps: list = [None] * (2 * rank)
        combo: list[int] = []
        best, best_order, budget = None, 0, QUOTIENT_SEARCH_MAX

        def survive(walks: list[list[int]]) -> bool:
            for k, walk in enumerate(walks):
                x = 0
                for i in walk:
                    x = steps[i][x]
                if x == 0:
                    walks.insert(0, walks.pop(k))
                    return False
            return True

        def least_conjugates(first: int) -> list[int]:
            """The permutations least among their conjugates by the
            centralizer of ``first``."""
            centralizer = [s for s in range(len(perms)) if mul[s][first] == mul[first][s]]
            seen: set[int] = set()
            least = []
            for p in range(len(perms)):
                if p not in seen:
                    least.append(p)
                    seen.update(mul[mul[s][p]][inv[s]] for s in centralizer)
            return least

        def extend(options: Sequence[int]) -> None:
            """Try each option as the next generator, in order, and search
            below each prefix that keeps its targets and stays below the
            least order found."""
            nonlocal best, best_order, budget
            k = len(combo)
            combo.append(0)
            for g in options:
                if budget == 0:
                    break
                budget -= 1
                combo[k], steps[k], steps[rank + k] = g, mul[g], mul[inv[g]]
                if not survive(walks_at[k]):
                    continue
                images = tuple(perms[i] for i in combo)
                if k + 1 == rank:
                    order = order_bound(images, degree, None if best is None else best_order - 1)
                    if best is None or order < best_order:
                        best, best_order = images, order
                elif best is None or order_bound(images, degree, best_order - 1) < best_order:
                    # generator 2 up to conjugation by generator 1's centralizer
                    extend(least_conjugates(g) if k == 0 else range(len(perms)))
            combo.pop()

        # the identity's centralizer is everything: one per conjugacy class
        extend(least_conjugates(0))
        if best is not None:
            return quotient(CosetTable(rank, degree, best), "quotient-search")
        if budget == 0:
            cut.append(str(degree))
    texts = [w.text() for w in targets]
    verb = "was found to separate" if cut else "separates"
    message = (f"no quotient of degree at most {QUOTIENT_DEGREE_MAX} {verb} "
               f"the {len(texts)} targets {reprlib.repr(texts)}")
    if cut:
        message += (f" (the search stopped at {QUOTIENT_SEARCH_MAX} generators "
                    f"of degree {', '.join(cut)})")
    raise CoreTooLargeError(message)


def biregular_approximation(
    rank: int, F: Sequence[GroupElement], E: Sequence[Word], epsilon: Fraction
) -> Certificate:
    """Exact certificate for G x G acting on G by (h, k): x -> h x k^-1;
    F and E come checked and canonical from ``approximate``.

    For a normal finite-index K in which the pairwise differences of E
    survive, the carrier is Q x Q for Q = G/K acting coordinatewise by
    left translation and B is Q.  The left factor moves B by left
    translation, the right factor by q -> q a^-1, and the row at the
    identity (1, 1) is the identity, so the row at (u, v) is
    q -> u^-1 q v.  The left translations are the move rows of the
    closure under ``table.inverses``, as in :func:`finite_index_witness`.
    """
    table, group, route = _separating_quotient(rank, pairwise_differences(E))
    elements = group.elements
    m = len(elements)
    index = {p: i for i, p in enumerate(elements)}
    # x's left multiplication of the cosets, generator i moving them by table.inverses[i]
    cosets = SoficApproximation("free", rank, table.size, table.inverses)
    e_labels = [index[cosets.permutation_of(x)] for x in E]
    if len(set(e_labels)) != len(e_labels):
        raise AssertionError("separating quotient produced a label collision")

    left = list(group.moves)
    # q -> q g^-1, where g^-1 maps to the walk table.images[i]
    right = [tuple(index[compose(p, g_inv)] for p in elements) for g_inv in table.images]
    images = [tuple(tr[u] * m + v for u in range(m) for v in range(m)) for tr in left]
    images += [tuple(u * m + tr[v] for u in range(m) for v in range(m)) for tr in left]
    approx = SoficApproximation("product", rank, m * m, tuple(images))
    witness = orbit_witness(images, left + right, e_labels)
    provenance = {
        "builder": "exact-homomorphism",
        "strategy": route,
        "requested_epsilon": str(epsilon),
        "quotient": {"degree": table.size, "order": m,
                     "walks": [list(p) for p in table.images]},
        "point_labels": e_labels,
    }
    return Certificate(BiregularAction(rank), tuple(F), tuple(E), Fraction(0), approx, witness,
                       provenance)


# ---------------------------------------------------------------------------
# the general pipeline


@contextlib.contextmanager
def _stage(name: str):
    """Report an error raised inside as a StageError of stage ``name``;
    an inner stage's error passes through, and so does an exception that
    is not an ``Exception``, such as KeyboardInterrupt."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def approximate(
    spec: ActionSpec,
    F: Sequence[GroupElement],
    E: Sequence[Word],
    epsilon: Fraction = DEFAULT_EPSILON,
    core_cap: int = DEFAULT_CORE_CAP,
) -> Certificate:
    """Build an exact certificate for (spec, F, E).

    Coset actions run the separation pipeline (targets, Hall completion
    checked against both halves of the targets, finite-index witness at
    E's coset labels).  The biregular action is transitive and is built
    directly on a product carrier.  Restricted actions recurse into the
    inner action along the generator images and pull phi back.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    for g in F:
        check_element(spec, g)
    with _stage("canonicalize"):
        points = [canonical_point(spec, x) for x in E]
        if len({p.letters for p in points}) != len(points):
            raise ValueError("duplicate points in E")

    if isinstance(spec, RestrictedAction):
        with _stage("restrict"):
            inner_F = [apply_images(spec.images, g) for g in F]
            inner = approximate(spec.inner, inner_F, points, epsilon, core_cap)
            return restrict_certificate(inner, spec.images, list(F))

    if isinstance(spec, BiregularAction):
        with _stage("biregular"):
            return biregular_approximation(spec.rank, F, points, epsilon)

    with _stage("separation_targets"):
        t_avoid, t_contain = separation_targets(spec, list(F), points)
    with _stage("hall_completion"):
        table = hall_completion(spec.graph, t_avoid)
        for w in t_avoid:
            if coset_of(table, w) == 0:
                raise SeparatorInvalidError(f"table fails to avoid {w.text()!r}")
        for w in t_contain:
            if coset_of(table, w) != 0:
                raise SeparatorInvalidError(f"table fails to contain {w.text()!r}")
        # so x -> (left coset of x) is injective on E and equivariant
        labels = [left_coset_of(table, x) for x in points]
        if len(set(labels)) != len(labels):
            raise AssertionError("separating table produced a label collision")
    with _stage("finite_index_witness"):
        approx, witness = finite_index_witness(table, labels, core_cap)
    provenance = {
        "builder": "exact-homomorphism",
        "requested_epsilon": str(epsilon),
        "separator": {"index": table.size, "images": [list(p) for p in table.images]},
        "point_labels": labels,
    }
    return Certificate(spec, tuple(F), tuple(points), Fraction(0), approx, witness, provenance)


def restrict_certificate(
    cert: Certificate, images: Sequence[GroupElement], F: Sequence[Word]
) -> Certificate:
    """Pull a certificate back along generator j -> images[j].

    phi becomes phi . image on each outer generator; the witness is
    unchanged.  The result is exact when the base phi is a homomorphism,
    as every certificate built here is; otherwise it is only what the
    verifier makes of it.
    """
    for g in images:
        check_element(cert.action, g)
    outer_rank = len(images)
    for g in F:
        if not isinstance(g, Word) or g.rank != outer_rank:
            raise ValueError(f"expected rank-{outer_rank} words in F, got {g!r}")
    arrays = tuple(cert.approx.permutation_of(g) for g in images)
    approx = SoficApproximation("free", outer_rank, cert.approx.size, arrays)
    action = RestrictedAction(cert.action, tuple(images))
    provenance = dict(cert.provenance)
    provenance["restricted_from"] = action_to_json(cert.action)["kind"]
    return Certificate(action, tuple(F), cert.E, cert.epsilon, approx, cert.witness, provenance)
