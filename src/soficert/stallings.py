"""Stallings graphs of finitely generated subgroups of F_k.

A subgroup given by generator words is represented by its folded core
graph: a based, edge-labeled graph in which a reduced word lies in the
subgroup exactly when it reads a closed path at the basepoint.  Coset
actions name their points by the canonical coset words read off this
graph; the Hall completion that extends it to a finite-index separator
lives in :mod:`soficert.quotients`, outside the verifier's imports.

Canonical vertex numbering is breadth-first from the basepoint with
generator edges before inverse edges, labels ascending; coset
representatives are shortlex-minimal in the same letter order.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Sequence

from .words import Record, Word, invert


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
