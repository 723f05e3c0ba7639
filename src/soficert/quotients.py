"""Finite quotients of F_k that separate finitely many words.

Spelling a finite "avoid" set onto a folded core graph (see
:mod:`soficert.stallings`), which stays folded, and then completing
every partial letter map to a permutation yields a finite-index
overgroup that still excludes every avoid word: Hall completion, the
separating-subgroup constructor of the builder.  The permutation group
that such a coset table generates is sized by one Schreier-Sims chain,
whose base points and basic orbit lengths also size each orbit of a base
prefix.  One breadth-first closure lists such an orbit, or the group
itself, storing each element s as s^-1, the witness row of s when the
group acts on itself, and records the index of every product it forms.
The verifier imports none of this module: a certificate names its
points by core graphs and canonical coset words alone.

Conventions:

* ``coset_of`` applies letters left to right starting at coset 0, so
  tables enumerate walks of the K\\G kind and ``coset_of(w) == 0`` iff
  ``w`` lies in the subgroup.
* Left cosets uK (the ones coset actions are built from) are labeled by
  ``left_coset_of(u) = coset_of(u^-1)``; left multiplication by ``g``
  then permutes labels by the walk of ``g^-1``, which is a genuine
  homomorphism into Sym(n).

The builder's inner loops store a permutation of at most
``BYTES_DEGREE_MAX`` points as ``bytes`` instead of a tuple: then a
product is one ``bytes.translate`` call, and a bytes key hashes once and
is not tracked by the garbage collector.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from operator import methodcaller
from typing import Sequence

from .permutations import _gather, compose, identity_perm, inverse, is_permutation
from .stallings import StallingsGraph, _bfs, _spell
from .words import Record, Word, invert

DEFAULT_CORE_CAP = 10**6


class InseparableError(ValueError):
    """An avoid word already lies in the subgroup."""

    def __init__(self, word: Word):
        self.word = word
        super().__init__(f"word {word.text()!r} lies in the subgroup; cannot separate")


class CoreTooLargeError(RuntimeError):
    """A carrier or its permutation group would exceed a size cap."""


BYTES_DEGREE_MAX = 256


def byte_table(p: Sequence[int]) -> bytes:
    """``p`` padded with the identity to 256 entries, a ``bytes.translate``
    table: ``u.translate(byte_table(p))`` is p . u for a bytes ``u``."""
    return bytes(p) + bytes(range(len(p), 256))


# ---------------------------------------------------------------------------
# group orders


class _Level:
    """One level of a stabilizer chain: base point, strong generators and
    the transversal of the basic orbit (``u[x]`` maps the base point to x)."""

    def __init__(self, point: int, identity: tuple[int, ...]):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.orbit = [point]
        self.u = {point: identity}
        self.u_inv = {point: identity}
        self.checked: set[tuple[int, int]] = set()  # (orbit point, generator index)

    def add(self, g: tuple[int, ...]) -> None:
        self.gens.append(g)
        for x in self.orbit:  # the list grows while it is walked
            for s in self.gens:
                y = s[x]
                if y not in self.u:
                    uy = compose(s, self.u[x])
                    self.u[y] = uy
                    self.u_inv[y] = inverse(uy)
                    self.orbit.append(y)


def _sift(levels: list[_Level], g: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
    """Strip ``g`` through levels ``start``...; returns the residue and the
    level it could not pass (``len(levels)`` if it passed them all)."""
    for i in range(start, len(levels)):
        level = levels[i]
        inv = level.u_inv.get(g[level.point])
        if inv is None:
            return g, i
        g = compose(inv, g)
    return g, len(levels)


def stabilizer_chain(
    generators: Sequence[Sequence[int]], degree: int, cap: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Base points and basic orbit lengths of a stabilizer chain of the
    group generated by ``generators`` on ``degree`` points.

    Builds the chain by the deterministic incremental Schreier-Sims
    algorithm (Seress, *Permutation Group Algorithms*, 2003, section
    4.2).  Every strong generator is a product of the inputs, so the
    product of the basic orbit lengths of any partial chain is a lower
    bound on the order, and the finished chain gives the order exactly.
    With a ``cap``, the chain is returned at the first bound above it.
    On a finished chain the orbit of the base prefix (b_1, ..., b_k) has
    exactly the product of the first k lengths as its size.
    """
    identity = identity_perm(degree)
    levels: list[_Level] = []

    def install(residue: tuple[int, ...], low: int, high: int) -> bool:
        """Add ``residue`` to levels low..high (a new last level if high is
        past the end); whether the bound now exceeds the cap."""
        if high == len(levels):
            moved = next(x for x in range(degree) if residue[x] != x)
            levels.append(_Level(moved, identity))
        for level in levels[low:high + 1]:
            level.add(residue)
        return cap is not None and math.prod(len(level.orbit) for level in levels) > cap

    def chain() -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(level.point for level in levels), tuple(len(level.orbit) for level in levels)

    for g in generators:
        residue, j = _sift(levels, tuple(g), 0)
        if residue != identity and install(residue, 0, j):
            return chain()
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        jump = None
        for x in level.orbit:
            for k, s in enumerate(level.gens):
                if (x, k) in level.checked:
                    continue
                level.checked.add((x, k))
                # Schreier generator u[s x]^-1 . s . u[x] fixes the base point
                schreier = compose(level.u_inv[s[x]], compose(s, level.u[x]))
                residue, j = _sift(levels, schreier, i + 1)
                if residue != identity:
                    if install(residue, i + 1, j):
                        return chain()
                    jump = j
                    break
            if jump is not None:
                break
        i = i - 1 if jump is None else jump
    return chain()


def order_bound(generators: Sequence[Sequence[int]], degree: int, cap: int | None = None) -> int:
    """Order of the group generated by ``generators`` on ``degree`` points:
    the product of its stabilizer chain's basic orbit lengths, with a
    ``cap`` the first lower bound above it."""
    return math.prod(stabilizer_chain(generators, degree, cap)[1])


def capped_chain(
    generators: Sequence[Sequence[int]], degree: int, cap: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The stabilizer chain of a group of order at most ``cap``; a larger
    group is refused before any of its elements is listed."""
    base, orbits = stabilizer_chain(generators, degree, cap)
    order = math.prod(orbits)
    if order > cap:
        raise CoreTooLargeError(
            f"image group exceeds cap {cap} on {degree} points (order at least {order})"
        )
    return base, orbits


# ---------------------------------------------------------------------------
# coset tables


class CosetTable(Record):
    """Complete permutation table: one permutation per generator."""

    __slots__ = ("rank", "size", "images", "__dict__")

    def __init__(self, rank: int, size: int, images: tuple[tuple[int, ...], ...]) -> None:
        if len(images) != rank:
            raise ValueError("need one image array per generator")
        for img in images:
            if not is_permutation(img, size):
                raise ValueError(f"image array {img} is not a permutation of {size} points")
        Record.__init__(self, rank, size, images)

    @cached_property
    def inverses(self) -> tuple[tuple[int, ...], ...]:
        return tuple(inverse(img) for img in self.images)


def coset_of(table: CosetTable, w: Word) -> int:
    """Walk ``w`` letter by letter from coset 0.  Zero iff ``w`` is in the subgroup."""
    if w.rank != table.rank:
        raise ValueError(f"word rank {w.rank} != table rank {table.rank}")
    state = 0
    for l in w.letters:
        state = table.images[l - 1][state] if l > 0 else table.inverses[-l - 1][state]
    return state


def left_coset_of(table: CosetTable, w: Word) -> int:
    """Label of the left coset wK.  Equal labels exactly when u^-1 v is in K."""
    return coset_of(table, invert(w))


def hall_completion(graph: StallingsGraph, avoid: Sequence[Word]) -> CosetTable:
    """Finite-index overgroup table excluding every ``avoid`` word.

    Spells each avoid word onto the folded ``graph`` from the basepoint.
    The spelled paths form a tree, so a word ends at the basepoint
    exactly when it lies in the subgroup; the first such word is refused.
    Then numbers the vertices as ``core_graph`` does and completes each
    partial letter map, unmatched sources to unmatched targets in
    ascending order.  Postconditions: subgroup generators still close at
    coset 0; every avoid word walks to a nonzero coset.
    """
    steps = dict(graph._steps)
    fresh = graph.vertex_count
    for w in avoid:
        if w.rank != graph.rank:
            raise ValueError(f"avoid word rank {w.rank} != graph rank {graph.rank}")
        end, fresh = _spell(steps, w.letters, fresh)
        if end == 0:
            raise InseparableError(w)
    order = list(_bfs(steps, graph.rank, 0))
    number = {v: i for i, v in enumerate(order)}
    images = []
    for l in range(1, graph.rank + 1):
        img = [number.get(steps.get((v, l))) for v in order]  # None: no l-edge
        targets = iter(sorted(set(range(fresh)).difference(img)))
        images.append(tuple(next(targets) if t is None else t for t in img))
    return CosetTable(graph.rank, fresh, tuple(images))


# ---------------------------------------------------------------------------
# image groups


class ImageGroup(Record):
    """A permutation group listed by its closure, with the closure's moves.

    ``rows[i]`` is the inverse of element i: the witness row of carrier
    point i when the group acts on itself by left composition.  A row is
    bytes on at most ``BYTES_DEGREE_MAX`` points and a tuple above.
    ``moves[k][i]`` is the index of generator k composed after element
    i, so a move row is the group's left-multiplication action by that
    generator.  ``len`` is the group order.
    """

    __slots__ = ("rows", "moves")

    def __len__(self) -> int:
        return len(self.rows)


def _closure(first, steps, tail, size: int) -> tuple[list, tuple[tuple[int, ...], ...]]:
    """The breadth-first closure of ``first`` under ``steps``: the points in
    the order it discovers them, which must be ``size`` many, and
    ``moves[k][i]``, the index of the point that step k makes of point
    i.  A step is applied to a point padded with ``tail``."""
    index = {first: 0}
    points = [first]
    moves: list[list[int]] = [[] for _ in steps]
    find, discover = index.get, points.append
    records = [(step, move.append) for step, move in zip(steps, moves)]
    for point in points:  # the list grows while it is walked
        table = point + tail
        for step, record in records:
            v = step(table)
            i = find(v)
            if i is None:
                i = index[v] = len(points)
                discover(v)
            record(i)
    if len(points) != size:
        raise AssertionError(f"closure has {len(points)} points, stabilizer chain {size}")
    return points, tuple(map(tuple, moves))


def image_group(
    generators: Sequence[Sequence[int]], degree: int, cap: int = DEFAULT_CORE_CAP,
    order: int | None = None,
) -> ImageGroup:
    """The permutation group generated by ``generators`` on ``degree``
    points, its elements in the order a breadth-first closure from the
    identity discovers them, and the index of every product it forms.
    The closure takes no inverse: g^-1 is a power of g in a finite group.

    The group is sized by a Schreier-Sims chain first; one of order
    above ``cap`` is refused before any element is listed.  ``order`` is
    the group's order when the caller has sized it already; it is then
    not sized again.  The closure stores each element s as its row s^-1
    and steps row(p . s) = row(s) . p^-1.  On at most
    ``BYTES_DEGREE_MAX`` points that is ``bytes(p^-1).translate`` of the
    row padded to a byte table; above, one gather through p^-1.
    """
    if order is None:
        order = math.prod(capped_chain(generators, degree, cap)[1])
    if degree <= BYTES_DEGREE_MAX:
        first, tail = bytes(range(degree)), bytes(range(degree, 256))
        steps = [bytes(inverse(p)).translate for p in generators]
    else:
        first, tail = identity_perm(degree), ()
        steps = [_gather(inverse(p)) for p in generators]
    rows, moves = _closure(first, steps, tail, order)
    return ImageGroup(tuple(rows), moves)


def base_orbit(
    generators: Sequence[Sequence[int]], degree: int, base: Sequence[int], size: int
) -> tuple[tuple[int, ...], ...]:
    """The group generated by ``generators`` acting on the orbit of the
    point tuple ``base``, which has ``size`` tuples: the move rows of the
    closure from ``base``, each tuple p . u stepped as the images of u's
    points.  On at most ``BYTES_DEGREE_MAX`` points a tuple is bytes and
    a step one ``translate`` through the generator's byte table."""
    if degree <= BYTES_DEGREE_MAX:
        first, tail = bytes(base), b""
        steps = [methodcaller("translate", byte_table(p)) for p in generators]
    else:
        first, tail = tuple(base), ()
        steps = [partial(compose, p) for p in generators]
    return _closure(first, steps, tail, size)[1]
