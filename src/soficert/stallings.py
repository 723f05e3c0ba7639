"""Stallings graphs and coset tables for finitely generated subgroups of F_k.

A subgroup given by generator words is represented by its folded core
graph: a based, edge-labeled graph in which a reduced word lies in the
subgroup exactly when it reads a closed path at the basepoint.  Spelling
a finite "avoid" set onto the graph, which stays folded, and then
completing every partial letter map to a permutation yields a
finite-index overgroup that still excludes every avoid word; this is
the separating-subgroup constructor used throughout the package.

Conventions fixed once and shared by every module:

* ``coset_of`` applies letters left to right starting at coset 0, so
  tables enumerate walks of the K\\G kind and ``coset_of(w) == 0`` iff
  ``w`` lies in the subgroup.
* Left cosets uK (the ones coset actions are built from) are labeled by
  ``left_coset_of(u) = coset_of(u^-1)``; left multiplication by ``g``
  then permutes labels by the walk of ``g^-1``, which is a genuine
  homomorphism into Sym(n).
* Canonical vertex numbering is breadth-first from the basepoint with
  generator edges before inverse edges, labels ascending; coset
  representatives are shortlex-minimal in the same letter order.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from operator import attrgetter
from typing import Sequence

from .permutations import (
    BYTES_DEGREE_MAX, _gather, byte_table, identity_perm, inverse, is_permutation, order_bound,
)
from .words import Record, Word, invert

DEFAULT_CORE_CAP = 10**6


class InseparableError(ValueError):
    """An avoid word already lies in the subgroup."""

    def __init__(self, word: Word):
        self.word = word
        super().__init__(f"word {word.text()!r} lies in the subgroup; cannot separate")


class CoreTooLargeError(RuntimeError):
    """A carrier or its permutation group would exceed a size cap."""


# ---------------------------------------------------------------------------
# folded graphs


class StallingsGraph(Record):
    """Folded, based (basepoint 0), edge-labeled graph with labels 1..rank;
    ``edges`` holds its (source, label, target) triples, sorted."""

    __slots__ = ("rank", "vertex_count", "edges", "__dict__")

    def __init__(
        self, rank: int, vertex_count: int, edges: tuple[tuple[int, int, int], ...]
    ) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    @cached_property
    def _steps(self) -> dict[tuple[int, int], int]:
        return _steps_table(self.edges)

    def trace(self, w: Word) -> int | None:
        """Endpoint of reading ``w`` from the basepoint; None if some edge is missing."""
        state = 0
        for l in w.letters:
            nxt = self._steps.get((state, l))
            if nxt is None:
                return None
            state = nxt
        return state


def _fold(edges: set[tuple[int, int, int]], n: int) -> set[tuple[int, int, int]]:
    """Fold to the unique deterministic quotient by a union-find worklist.

    Each class root maps signed letters to a neighbour.  A half-edge
    whose letter is already mapped to another class merges the two
    classes, and the smaller class's map goes back on the worklist, so
    the work is near-linear in the edge count (Touikan 2006).  The
    basepoint 0 always stays a root.  Returns the folded edge set over
    root vertices.
    """
    parent = list(range(n))
    size = [1] * n
    out: list[dict[int, int]] = [{} for _ in range(n)]
    pending = [(u, l, v) for u, l, v in edges] + [(v, -l, u) for u, l, v in edges]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    while pending:
        u, l, v = pending.pop()
        a, b = find(out[find(u)].setdefault(l, v)), find(v)
        if a == b:
            continue
        if b == 0 or (a != 0 and size[a] < size[b]):
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        pending.extend((a, l, v) for l, v in out[b].items())
    return {(u, l, find(v)) for u in range(n) if parent[u] == u for l, v in out[u].items() if l > 0}


def _steps_table(edges) -> dict[tuple[int, int], int]:
    """(vertex, signed letter) -> neighbour, both directions of every edge."""
    table: dict[tuple[int, int], int] = {}
    for u, l, v in edges:
        table[(u, l)] = v
        table[(v, -l)] = u
    return table


def _bfs(
    steps: dict[tuple[int, int], int], rank: int, start: int, stop: int | None = None
) -> dict[int, tuple[int, int]]:
    """Breadth-first search along ``steps`` from ``start``, signed letters
    in canonical order: 1..rank then -1..-rank.  Returns the parent map
    ``vertex -> (parent, letter)`` in discovery order, ``start`` mapping
    to ``(-1, 0)``; the search ends once ``stop`` is dequeued."""
    letters = (*range(1, rank + 1), *range(-1, -rank - 1, -1))
    parent = {start: (-1, 0)}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == stop:
            break
        for l in letters:
            w = steps.get((v, l))
            if w is not None and w not in parent:
                parent[w] = (v, l)
                queue.append(w)
    return parent


def _spell(steps: dict[tuple[int, int], int], letters: Sequence[int], fresh: int) -> tuple[int, int]:
    """Read ``letters`` from the basepoint along ``steps``, adding a
    fresh vertex wherever an edge is missing, so a folded graph stays
    folded.  Returns the endpoint and the next fresh vertex number."""
    state = 0
    for l in letters:
        nxt = steps.get((state, l))
        if nxt is None:
            nxt = fresh
            fresh += 1
            steps[(state, l)] = nxt
            steps[(nxt, -l)] = state
        state = nxt
    return state, fresh


def _canonical(rank: int, edges: set[tuple[int, int, int]]) -> StallingsGraph:
    """Renumber vertices by BFS from the basepoint, letters in canonical order."""
    order = {v: i for i, v in enumerate(_bfs(_steps_table(edges), rank, 0))}
    renamed = sorted((order[u], l, order[v]) for u, l, v in edges)
    return StallingsGraph(rank, len(order), tuple(renamed))


def core_graph(generators: Sequence[Word], rank: int) -> StallingsGraph:
    """Folded core graph of the subgroup generated by ``generators``: all
    but the last letter of each is spelled from the basepoint, so shared
    prefixes share a path, and only its one closing edge can fold."""
    steps: dict[tuple[int, int], int] = {}
    closing: set[tuple[int, int, int]] = set()
    fresh = 1
    for w in generators:
        if w.rank != rank:
            raise ValueError(f"generator rank {w.rank} != {rank}")
        if w.is_identity:
            continue
        end, fresh = _spell(steps, w.letters[:-1], fresh)
        l = w.letters[-1]
        closing.add((end, l, 0) if l > 0 else (0, -l, end))
    tree = {(u, l, v) for (u, l), v in steps.items() if l > 0}
    return _canonical(rank, _fold(tree | closing, fresh))


def contains(graph: StallingsGraph, w: Word) -> bool:
    """Subgroup membership: does ``w`` read a closed path at the basepoint?"""
    if w.rank != graph.rank:
        raise ValueError(f"word rank {w.rank} != graph rank {graph.rank}")
    return graph.trace(w) == 0


def coset_canonical_word(graph: StallingsGraph, w: Word) -> Word:
    """Shortlex-minimal representative of the left coset wH.

    Extends the subgroup graph with a path spelling w^-1 from the
    basepoint, then searches breadth-first (letters in canonical order)
    from the path's endpoint back to the basepoint; the first word found
    is the shortlex-minimal element of wH.
    """
    steps = dict(graph._steps)
    state, _ = _spell(steps, invert(w).letters, graph.vertex_count)
    parent = _bfs(steps, graph.rank, state, stop=0)
    letters: list[int] = []
    v = 0
    while v != state:
        v, l = parent[v]
        letters.append(l)
    letters.reverse()
    return Word(tuple(letters), w.rank)


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
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "images", images)

    @cached_property
    def inverses(self) -> tuple[tuple[int, ...], ...]:
        return tuple(inverse(img) for img in self.images)

    def walk(self, w: Word) -> int:
        """The coset reached by reading ``w`` from coset 0."""
        state = 0
        for l in w.letters:
            state = self.images[l - 1][state] if l > 0 else self.inverses[-l - 1][state]
        return state


def coset_of(table: CosetTable, w: Word) -> int:
    """Walk ``w`` letter by letter from coset 0.  Zero iff ``w`` is in the subgroup."""
    if w.rank != table.rank:
        raise ValueError(f"word rank {w.rank} != table rank {table.rank}")
    return table.walk(w)


def left_coset_of(table: CosetTable, w: Word) -> int:
    """Label of the left coset wK.  Equal labels exactly when u^-1 v is in K."""
    return table.walk(invert(w))


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


class ImageGroup:
    """A permutation group listed by its closure, with the closure's moves.

    The steps are the generators, then their inverses; ``moves[k][i]``
    is the index in ``encoded`` of step k composed after element i, so
    a move row is the group's left-multiplication action by that step.
    ``encoded`` holds the elements as the closure stored them: bytes on
    at most ``BYTES_DEGREE_MAX`` points, tuples above; ``elements``
    decodes them to tuples on first read.  ``len`` is the group order.
    """

    def __init__(
        self, encoded: tuple[Sequence[int], ...], moves: tuple[tuple[int, ...], ...]
    ) -> None:
        self.encoded = encoded
        self.moves = moves

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.encoded))

    def __len__(self) -> int:
        return len(self.encoded)


def image_group(
    generators: Sequence[Sequence[int]], degree: int, cap: int = DEFAULT_CORE_CAP
) -> ImageGroup:
    """The permutation group generated by ``generators`` on ``degree``
    points, its elements in the order a breadth-first closure from the
    identity discovers them (each generator, then each inverse), and the
    index of every product the closure forms.

    The group is sized by a Schreier-Sims chain first; one of order
    above ``cap`` is refused before any element is listed.  On at most
    ``BYTES_DEGREE_MAX`` points an element u is bytes and p . u is
    ``u.translate`` of p's byte table; above, u is a tuple and one
    gather through u, applied to every step p, gives p . u.
    """
    order = order_bound(generators, degree, cap)
    if order > cap:
        raise CoreTooLargeError(
            f"image group exceeds cap {cap} on {degree} points (order at least {order})"
        )
    steps = list(generators) + [inverse(p) for p in generators]
    if degree <= BYTES_DEGREE_MAX:
        first, product = bytes(range(degree)), attrgetter("translate")
        steps = [byte_table(p) for p in steps]
    else:
        first, product = identity_perm(degree), _gather
    index = {first: 0}
    elements = [first]
    moves: list[list[int]] = [[] for _ in steps]
    find, discover = index.get, elements.append
    records = [(p, row.append) for p, row in zip(steps, moves)]
    for u in elements:  # the list grows while it is walked
        after = product(u)
        for p, record in records:
            v = after(p)
            i = find(v)
            if i is None:
                i = index[v] = len(elements)
                discover(v)
            record(i)
    if len(elements) != order:
        raise AssertionError(f"closure has {len(elements)} elements, stabilizer chain {order}")
    return ImageGroup(tuple(elements), tuple(map(tuple, moves)))
