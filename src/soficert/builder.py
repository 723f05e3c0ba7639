"""Certificate construction, and the writer of certificate files.

Every build here is exact: the produced map on generators extends to a
genuine homomorphism into Sym(A), S is all of A, and the orbit witness
satisfies its equivariance equalities on the nose, so the claimed
epsilon is always 0.

Each construction starts from a finite group Q, the group that the
generators' permutations g_B of a label set B generate, and one
routine, :func:`finite_index_witness`, builds phi and pi from the g_B.
Q acting on itself by left composition always carries a witness: its
point 0 is the identity with the identity row; row(phi(g)s) = row(s) .
g_B^-1 makes the row of s its inverse, which the closure that lists Q
stores, and pi keeps the columns at E's labels.  phi is read off the
closure's move rows.  A coset job first tries the smaller actions of Q
on the orbits of its stabilizer chain's base prefixes, smallest first,
and takes the first on which a union-find witness exists.

* core -- for a separating table K of index n (left cosets labeled as
  in :mod:`soficert.quotients`), B is the n cosets and g_B the
  permutation by which g left-multiplies them; Q is the quotient by the
  normal core of K, and the carrier is the least rung of Q that carries
  a witness.
* biregular -- G x G acting on G, for a finite quotient Q in which the
  pairwise point differences survive: B is Q, moved by left
  translations and by q -> q a^-1, and A is the group these generate,
  of order |Q|^2 / |Z(Q)|, acting on itself.

A coset action reaches the core construction in three steps: Hall
completion of H's core graph away from the differences x^-1 y of E's
points gives K >= H with E in distinct left cosets; each of the two
facts is checked on the table; E's points are labeled by their cosets.

The one size setting is ``core_cap``, a bound on |Q|; the biregular
quotient search is bounded by the constants below.  B is range(|B|),
stored in a certificate file as distinct integers.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import reprlib
from fractions import Fraction
from typing import Callable, Sequence

from .actions import (
    ActionSpec,
    BiregularAction,
    CosetAction,
    GroupElement,
    RestrictedAction,
    act,
    apply_images,
    canonical_point,
    check_element,
    element_invert,
    element_text,
)
from .certificate import Certificate, OrbitWitness, SoficApproximation
from .permutations import _gather, compose
from .quotients import (
    DEFAULT_CORE_CAP,
    CoreTooLargeError,
    CosetTable,
    ImageGroup,
    base_orbit,
    byte_table,
    capped_chain,
    coset_of,
    hall_completion,
    image_group,
    left_coset_of,
    order_bound,
)
from .stallings import core_graph
from .words import Word, invert, multiply

DEFAULT_EPSILON = Fraction(0)

# a biregular carrier, of |Q|^2 / |Z(Q)| <= |Q|^2 points, stays within 10**5
QUOTIENT_ORDER_MAX = int(100_000**0.5)
# the small-quotient search tries the generator tuples, up to
# conjugacy, of each degree up to this one, setting at most
# QUOTIENT_SEARCH_MAX generators per degree: enough for every tuple at
# rank 3 or less (19 488 at degree 5)
QUOTIENT_DEGREE_MAX = 5
QUOTIENT_SEARCH_MAX = 25_000


class SeparatorInvalidError(ValueError):
    """The separating table breaks a fact the certificate rests on."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for CLI reporting."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage}: {cause}")


# ---------------------------------------------------------------------------
# the one construction and the quotients that feed it

# each g in F with the column pairs (i, j) where g^-1 . E[i] = E[j]
ColumnPairs = list[tuple[GroupElement, list[tuple[int, int]]]]


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


def finite_index_witness(
    kind: str, rank: int, b_moves: Sequence[Sequence[int]], labels: Sequence[int], cap: int,
    columns: Callable[[], ColumnPairs] | None = None,
) -> tuple[SoficApproximation, OrbitWitness]:
    """Exact approximation of a finite group acting on itself, with its
    witness at the B labels ``labels``, or on a smaller orbit of it when
    ``columns`` is given and that orbit carries a witness.

    ``b_moves`` are the generators' permutations of B = range(|B|), in
    the order of ``kind``'s generator images, and the group Q they
    generate is sized by one stabilizer chain, refused above ``cap``.
    Acting on itself by left composition, Q's phi is the closure's move
    rows.  The point 0 is the identity with the identity row, and
    row(phi(g)s) = row(s) . g_B^-1 makes the row of s its inverse, which
    the closure lists: pi keeps its entries at ``labels``.

    ``columns`` gives, for each g in F, g and its column pairs (i, j)
    with g^-1 . E[i] = E[j].  It is called once, and only when the chain
    has more than one level.  Then rung k, Q acting on the orbit of the
    base prefix (b_1, ..., b_k), is tried for k = 1, 2, ... below the
    last level, and the first one on which :func:`class_witness` finds a
    witness is the carrier; the last rung is Q acting on itself.
    """
    degree = len(b_moves[0])
    base, orbits = capped_chain(b_moves, degree, cap)
    if columns is not None and len(orbits) > 1:
        pairs = columns()
        for k in range(1, len(orbits)):
            size = math.prod(orbits[:k])
            moves = base_orbit(b_moves, degree, base[:k], size)
            approx = SoficApproximation(kind, rank, size, moves)
            witness = class_witness(approx, pairs, len(labels))
            if witness is not None:
                return approx, witness
    group = image_group(b_moves, degree, order=math.prod(orbits))
    approx = SoficApproximation(kind, rank, len(group), group.moves)
    pi = tuple(map(_gather(labels), group.rows))
    return approx, OrbitWitness(tuple(range(len(pi))), tuple(range(degree)), pi)


def class_witness(
    approx: SoficApproximation, columns: ColumnPairs, width: int
) -> OrbitWitness | None:
    """The exact witness on S = A whose labels are the classes of cells
    (s, i), for s in A and i < ``width``, under (phi(g)s, i) ~ (s, j) for
    each g and column pair (i, j) of ``columns``; None when a class holds
    two cells of one row.  Any exact witness is constant on each class,
    so then none exists (union-find: Tarjan, JACM 22, 1975).  Classes
    are numbered in the order their first cells come, row by row."""
    size = approx.size
    parent = list(range(size * width))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for g, pairs in columns:
        perm = approx.permutation_of(g)
        for i, j in pairs:
            for s, t in enumerate(perm):
                a, b = find(t * width + i), find(s * width + j)
                if a != b:
                    parent[a] = b
    number: dict[int, int] = {}
    pi = []
    for s in range(size):
        row = tuple(number.setdefault(find(c), len(number))
                    for c in range(s * width, s * width + width))
        if len(set(row)) < width:
            return None
        pi.append(row)
    return OrbitWitness(tuple(range(size)), tuple(range(len(number))), tuple(pi))


def column_pairs(spec: ActionSpec, F: Sequence[GroupElement], E: Sequence[Word]) -> ColumnPairs:
    """Each g in F with the pairs (i, j) where g^-1 . E[i] is E[j], decided
    as the verifier decides it: by the canonical point ``act`` names."""
    e_index = {x.letters: j for j, x in enumerate(E)}
    out = []
    for g in F:
        g_inv = element_invert(g)
        moved = (e_index.get(act(spec, g_inv, x).letters) for x in E)
        out.append((g, [(i, j) for i, j in enumerate(moved) if j is not None]))
    return out


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
    survive, B is Q = G/K, the left factor moves B by left translation
    and the right factor by q -> q a^-1.  G x G acting on G is the action
    on the cosets of the diagonal, so this is the coset construction
    again: the carrier is the group those translations generate, of
    order |Q|^2 / |Z(Q)|, acting on itself.  The left translations are
    the move rows of Q's closure under ``table.inverses``.
    """
    table, group, route = _separating_quotient(rank, pairwise_differences(E))
    m = len(group)
    index = {tuple(row): i for i, row in enumerate(group.rows)}
    # x labels q_x in Q, whose row q_x^-1 is x^-1's left multiplication of the cosets
    cosets = SoficApproximation("free", rank, table.size, table.inverses)
    e_labels = [index[cosets.permutation_of(invert(x))] for x in E]
    if len(set(e_labels)) != len(e_labels):
        raise AssertionError("separating quotient produced a label collision")

    # q -> q a^-1 for a = table.inverses[i], whose row is a . q^-1
    right = [tuple(index[compose(a, row)] for row in group.rows) for a in table.inverses]
    b_moves = group.moves + tuple(right)
    approx, witness = finite_index_witness("product", rank, b_moves, e_labels, m * m)
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

    Coset actions take three steps: the Hall completion of H away from
    E's pairwise differences, its two postconditions, and the
    finite-index witness at E's left-coset labels.  The biregular action
    is built on the group that a finite quotient's two-sided
    translations generate.  Restricted actions recurse into the inner
    action along the generator images, with E raw for the base action
    to canonicalize, and pull phi back.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    for g in F:
        check_element(spec, g)
    if isinstance(spec, RestrictedAction):
        with _stage("restrict"):
            inner_F = [apply_images(spec.images, g) for g in F]
            inner = approximate(spec.inner, inner_F, E, epsilon, core_cap)
            return restrict_certificate(inner, spec.images, list(F))

    with _stage("canonicalize"):
        points = [canonical_point(spec, x) for x in E]
        if len({p.letters for p in points}) != len(points):
            raise ValueError("duplicate points in E")

    if isinstance(spec, BiregularAction):
        with _stage("biregular"):
            return biregular_approximation(spec.rank, F, points, epsilon)

    with _stage("hall_completion"):
        table = hall_completion(spec.graph, pairwise_differences(points))
        # H <= K, so x -> xK is well defined on G/H and equivariant
        for h in spec.subgroup:
            if coset_of(table, h) != 0:
                raise SeparatorInvalidError(f"table fails to contain {h.text()!r}")
        # xK = yK exactly when x^-1 y is in K, so distinct labels make pi injective
        labels = [left_coset_of(table, x) for x in points]
        first: dict[int, Word] = {}
        for x, label in zip(points, labels):
            if label in first:
                w = multiply(invert(first[label]), x)
                raise SeparatorInvalidError(f"table fails to avoid {w.text()!r}")
            first[label] = x
    with _stage("finite_index_witness"):
        approx, witness = finite_index_witness("free", table.rank, table.inverses, labels, core_cap,
                                               lambda: column_pairs(spec, F, points))
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
    unchanged.  The base phi must be a homomorphism, as every certificate
    built here is, and its witness must be equivariant along the image
    of each element of ``F``.  A witness on a group acting on itself is
    equivariant along all of G, but one on a lower rung only along the F
    it was built for; ``approximate`` builds the inner job on the images
    of F, so its pull-back is exact.  Otherwise the result is only what
    the verifier makes of it.
    """
    action = RestrictedAction(cert.action, tuple(images))
    for g in F:
        check_element(action, g)
    arrays = tuple(cert.approx.permutation_of(g) for g in images)
    approx = SoficApproximation("free", len(images), cert.approx.size, arrays)
    provenance = dict(cert.provenance)
    provenance["restricted_from"] = action_to_json(cert.action)["kind"]
    return Certificate(action, tuple(F), cert.E, cert.epsilon, approx, cert.witness, provenance)


def action_to_json(spec: ActionSpec) -> dict:
    if isinstance(spec, CosetAction):
        return {
            "kind": "coset",
            "rank": spec.rank,
            "subgroup": [w.text() for w in spec.subgroup],
        }
    if isinstance(spec, BiregularAction):
        return {"kind": "biregular", "rank": spec.rank}
    return {
        "kind": "restricted",
        "inner": action_to_json(spec.inner),
        "images": [element_text(g) for g in spec.images],
    }


def _fields(cert: Certificate) -> dict:
    """Every field of the file, its arrays the certificate's own tuples,
    which ``json`` writes as it writes lists."""
    return {
        "action": action_to_json(cert.action),
        "F": [element_text(g) for g in cert.F],
        "E": [x.text() for x in cert.E],
        "epsilon": str(cert.epsilon),
        "carrier_size": cert.approx.size,
        "generator_images": cert.approx.images,
        "S": cert.witness.s_points,
        "B": cert.witness.b_labels,
        "pi": cert.witness.pi,
        "provenance": dict(cert.provenance),
    }


def certificate_to_dict(cert: Certificate) -> dict:
    """The file's JSON object, its arrays fresh lists that a caller may change."""
    data = _fields(cert)
    for key in ("S", "B"):
        data[key] = list(data[key])
    for key in ("generator_images", "pi"):
        data[key] = [list(row) for row in data[key]]
    return data


def _create_beside(path: str) -> tuple[str, int]:
    """A new file in ``path``'s directory, opened for writing, and its
    name, which is short whatever the length of ``path``'s own name.  It
    is created as ``open`` creates a file (mode 0o666 less the umask);
    a name already taken is skipped."""
    directory = os.path.dirname(path)
    for n in itertools.count():
        tmp = os.path.join(directory, f".soficert.tmp.{os.getpid()}.{n}")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def write_certificate(cert: Certificate, path: str) -> None:
    """Write one top-level key per line, in sorted order, each value in
    compact JSON with sorted keys.  ``json.dumps`` runs CPython's C
    encoder only without ``indent``; readers take any layout.  The data
    is acyclic by construction, so the encoder skips its cycle check.
    The file is written beside ``path`` and renamed over it; if the write
    or the rename fails, the temporary file is removed and the error
    raised."""
    data = _fields(cert)
    lines = (f"{json.dumps(key)}: "
             f"{json.dumps(data[key], separators=(',', ':'), sort_keys=True, check_circular=False)}"
             for key in sorted(data))
    payload = "{\n" + ",\n".join(lines) + "\n}\n"
    tmp, fd = _create_beside(path)
    try:
        with open(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
