"""Action specifications and exact point algebra for free-group actions.

Three action kinds are supported:

* ``CosetAction(rank, subgroup)`` — G = F_rank acting on left cosets
  G/H by left multiplication, alpha(g)(xH) = gxH.  Points are named by
  their shortlex-minimal coset representative.
* ``BiregularAction(rank)`` — G x G acting on G by
  alpha((h, k))(x) = h x k^-1.  Points are reduced words; group
  elements are pairs of words.
* ``RestrictedAction(inner, images)`` — an action pulled back along the
  homomorphism sending the j-th generator of an outer free group to
  ``images[j]``.  Conjugation is the diagonal restriction of the
  biregular action.
"""

from __future__ import annotations

import reprlib
from functools import lru_cache
from typing import Sequence

from .stallings import StallingsGraph, core_graph, coset_canonical_word
from .words import MAX_RANK, Record, Word, identity, invert, multiply, parse_word


def _check_rank(rank: int) -> None:
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {rank}")


class CosetAction(Record):
    __slots__ = ("rank", "subgroup")

    def __init__(self, rank: int, subgroup: tuple[Word, ...]) -> None:
        _check_rank(rank)
        for w in subgroup:
            if w.rank != rank:
                raise ValueError("subgroup generator rank mismatch")
        Record.__init__(self, rank, subgroup)

    @property
    def graph(self) -> StallingsGraph:
        return _coset_graph(self.rank, self.subgroup)


class BiregularAction(Record):
    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        _check_rank(rank)
        Record.__init__(self, rank)


GroupElement = Word | tuple[Word, Word]


class RestrictedAction(Record):
    __slots__ = ("inner", "images")

    def __init__(self, inner: "ActionSpec", images: tuple[GroupElement, ...]) -> None:
        if not 1 <= len(images) <= MAX_RANK:
            raise ValueError(f"a restricted action needs 1 to {MAX_RANK} images, got {len(images)}")
        for g in images:
            check_element(inner, g)
        Record.__init__(self, inner, images)


ActionSpec = CosetAction | BiregularAction | RestrictedAction


@lru_cache(maxsize=None)
def _coset_graph(rank: int, subgroup: tuple[Word, ...]) -> StallingsGraph:
    return core_graph(list(subgroup), rank)


# ---------------------------------------------------------------------------
# the acting group's element algebra


def acting_rank(spec: ActionSpec) -> int:
    """Number of generators of the acting group (outer group if restricted)."""
    if isinstance(spec, RestrictedAction):
        return len(spec.images)
    return spec.rank


def base_action(spec: ActionSpec) -> ActionSpec:
    """The coset or biregular action under any restrictions."""
    while isinstance(spec, RestrictedAction):
        spec = spec.inner
    return spec


def point_rank(spec: ActionSpec) -> int:
    """Rank of the free group whose words name the action's points."""
    return base_action(spec).rank


def check_element(spec: ActionSpec, g: GroupElement) -> None:
    if isinstance(spec, RestrictedAction):
        if not isinstance(g, Word) or g.rank != len(spec.images):
            raise ValueError(f"expected a rank-{len(spec.images)} word, got {g!r}")
    elif isinstance(spec, BiregularAction):
        if not (isinstance(g, tuple) and len(g) == 2):
            raise ValueError(f"biregular group elements are word pairs, got {g!r}")
        if g[0].rank != spec.rank or g[1].rank != spec.rank:
            raise ValueError("pair component rank mismatch")
    else:
        if not isinstance(g, Word) or g.rank != spec.rank:
            raise ValueError(f"expected a rank-{spec.rank} word, got {g!r}")


def element_multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    if isinstance(g, tuple):
        return (multiply(g[0], h[0]), multiply(g[1], h[1]))
    return multiply(g, h)


def element_invert(g: GroupElement) -> GroupElement:
    if isinstance(g, tuple):
        return (invert(g[0]), invert(g[1]))
    return invert(g)


def element_text(g: GroupElement):
    if isinstance(g, tuple):
        return [g[0].text(), g[1].text()]
    return g.text()


def apply_images(images: Sequence[GroupElement], g: Word) -> GroupElement:
    """Image of ``g`` under the homomorphism generator j+1 -> images[j]."""
    out: GroupElement | None = None
    for l in g.letters:
        target = images[abs(l) - 1]
        if l < 0:
            target = element_invert(target)
        out = target if out is None else element_multiply(out, target)
    if out is None:
        if isinstance(images[0], tuple):
            rank = images[0][0].rank
            return (identity(rank), identity(rank))
        return identity(images[0].rank)
    return out


# ---------------------------------------------------------------------------
# points


def canonical_point(spec: ActionSpec, raw: Word) -> Word:
    """Canonical name of the point ``raw``: coset representative for coset
    actions, the reduced word itself otherwise."""
    if isinstance(spec, CosetAction):
        if raw.rank != spec.rank:
            raise ValueError(f"point rank {raw.rank} != action rank {spec.rank}")
        return coset_canonical_word(spec.graph, raw)
    if isinstance(spec, RestrictedAction):
        return canonical_point(spec.inner, raw)
    if raw.rank != spec.rank:
        raise ValueError(f"point rank {raw.rank} != action rank {spec.rank}")
    return raw


def act(spec: ActionSpec, g: GroupElement, x: Word) -> Word:
    """Canonical point alpha(g)(x)."""
    check_element(spec, g)
    if isinstance(spec, CosetAction):
        return canonical_point(spec, multiply(g, x))
    if isinstance(spec, BiregularAction):
        h, k = g
        return multiply(h, multiply(x, invert(k)))
    return act(spec.inner, apply_images(spec.images, g), x)


# ---------------------------------------------------------------------------
# JSON forms


# deeper nesting is refused by the parser, before any recursion over the
# levels can reach Python's stack limit
MAX_NESTING = 64

# the fields of each kind of action object; any other key is refused
_ACTION_FIELDS = {
    "coset": ("kind", "rank", "subgroup"),
    "biregular": ("kind", "rank"),
    "restricted": ("kind", "inner", "images"),
}


def action_from_json(data: dict, depth: int = 0) -> ActionSpec:
    """Parse an action; ``depth`` counts the restricted levels around it."""
    if not isinstance(data, dict):
        raise TypeError(f"action must be an object, not {reprlib.repr(data)}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _ACTION_FIELDS:
        raise ValueError(f"unknown action kind {reprlib.repr(kind)}")
    for key in data:
        if key not in _ACTION_FIELDS[kind]:
            raise ValueError(f"unknown field {key!r} in a {kind} action")
    if kind == "coset":
        rank = _json_field(data, "rank", int)
        return CosetAction(rank, tuple(parse_word(t, rank) for t in _json_field(data, "subgroup", list)))
    if kind == "biregular":
        return BiregularAction(_json_field(data, "rank", int))
    if depth == MAX_NESTING:
        raise ValueError(f"restricted actions nest deeper than {MAX_NESTING} levels")
    inner = action_from_json(_json_field(data, "inner", dict), depth + 1)
    images = tuple(parse_element(inner, item) for item in _json_field(data, "images", list))
    return RestrictedAction(inner, images)


_JSON_TYPE_NAMES = {int: "an integer", list: "a list", dict: "an object"}


def _json_field(data: dict, key: str, kind: type):
    """``data[key]``, which must be present and of exactly the JSON type
    ``kind`` (so ``true`` is not an integer)."""
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    value = data[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be {_JSON_TYPE_NAMES[kind]}, not {reprlib.repr(value)}")
    return value


def parse_element(spec: ActionSpec, data) -> GroupElement:
    """Parse a group element of ``spec``'s acting group from its JSON form."""
    if isinstance(spec, BiregularAction):
        if not (isinstance(data, (list, tuple)) and len(data) == 2):
            raise ValueError(f"expected a word pair, got {reprlib.repr(data)}")
        return (parse_word(data[0], spec.rank), parse_word(data[1], spec.rank))
    return parse_word(data, acting_rank(spec))
