"""Tiny helpers for permutations stored as tuples: p[i] = image of i."""

from __future__ import annotations

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


def inverse(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def is_permutation(p: Sequence[int], n: int) -> bool:
    """Whether ``p`` lists 0..n-1 once each: n entries that cover range(n)."""
    return len(p) == n and set(p).issuperset(range(n))
