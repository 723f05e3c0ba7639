"""Tiny helpers for permutations stored as tuples: p[i] = image of i.

The builder's inner loops store a permutation of at most
``BYTES_DEGREE_MAX`` points as ``bytes`` instead: then p . u is the one
C call ``u.translate(byte_table(p))``, and a bytes key hashes once and is
not tracked by the garbage collector."""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Sequence


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _gather(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """x -> (x[i] for i in indices) as a tuple, built once for many x.
    ``itemgetter`` returns a bare item for one index and cannot be built
    from none, so those lengths get a generator expression."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda x: tuple(x[i] for i in indices)


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p after q: (p . q)[i] = p[q[i]], gathered in one C call."""
    return _gather(q)(p)


BYTES_DEGREE_MAX = 256


def byte_table(p: Sequence[int]) -> bytes:
    """``p`` padded with the identity to 256 entries, a ``bytes.translate``
    table: ``u.translate(byte_table(p))`` is p . u for a bytes ``u``."""
    return bytes(p) + bytes(range(len(p), 256))


def inverse(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def is_permutation(p: Sequence[int], n: int) -> bool:
    """Whether ``p`` lists 0..n-1 once each: n entries that cover range(n)."""
    return len(p) == n and set(p).issuperset(range(n))


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


def order_bound(generators: Sequence[Sequence[int]], degree: int, cap: int | None = None) -> int:
    """Order of the group generated by ``generators`` on ``degree`` points.

    Builds a stabilizer chain by the deterministic incremental
    Schreier-Sims algorithm (Seress, *Permutation Group Algorithms*,
    2003, section 4.2).  Every strong generator is a product of the
    inputs, so the product of the basic orbit lengths of any partial
    chain is a lower bound on the order, and the finished chain gives
    the order exactly.  With a ``cap``, the first bound above it is
    returned without finishing the chain.
    """
    identity = identity_perm(degree)
    levels: list[_Level] = []

    def bound() -> int:
        return math.prod(len(level.orbit) for level in levels)

    def install(residue: tuple[int, ...], low: int, high: int) -> bool:
        """Add ``residue`` to levels low..high (a new last level if high is
        past the end); whether the bound now exceeds the cap."""
        if high == len(levels):
            moved = next(x for x in range(degree) if residue[x] != x)
            levels.append(_Level(moved, identity))
        for level in levels[low:high + 1]:
            level.add(residue)
        return cap is not None and bound() > cap

    for g in generators:
        residue, j = _sift(levels, tuple(g), 0)
        if residue != identity and install(residue, 0, j):
            return bound()
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
                        return bound()
                    jump = j
                    break
            if jump is not None:
                break
        i = i - 1 if jump is None else jump
    return bound()
