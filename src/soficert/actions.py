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

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

from . import stallings
from .stallings import StallingsGraph, core_graph, signed_letters
from .words import Word, identity, invert, multiply, parse_word, product


@dataclass(frozen=True)
class CosetAction:
    rank: int
    subgroup: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        for w in self.subgroup:
            if w.rank != self.rank:
                raise ValueError("subgroup generator rank mismatch")

    @property
    def graph(self) -> StallingsGraph:
        return _coset_graph(self.rank, self.subgroup)


@dataclass(frozen=True)
class BiregularAction:
    rank: int


GroupElement = Union[Word, tuple[Word, Word]]


@dataclass(frozen=True)
class RestrictedAction:
    inner: "ActionSpec"
    images: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        for g in self.images:
            check_element(self.inner, g)


ActionSpec = Union[CosetAction, BiregularAction, RestrictedAction]


@lru_cache(maxsize=None)
def _coset_graph(rank: int, subgroup: tuple[Word, ...]) -> StallingsGraph:
    return core_graph(list(subgroup), rank)


class OrbitUndecidableError(RuntimeError):
    """Bounded search could not certify the orbit partition."""


# ---------------------------------------------------------------------------
# the acting group's element algebra


def acting_rank(spec: ActionSpec) -> int:
    """Number of generators of the acting group (outer group if restricted)."""
    if isinstance(spec, RestrictedAction):
        return len(spec.images)
    return spec.rank


def is_pair_group(spec: ActionSpec) -> bool:
    """Whether the acting group is a product G x G (biregular) or a single free group."""
    return isinstance(spec, BiregularAction)


def point_rank(spec: ActionSpec) -> int:
    """Rank of the free group whose words name the action's points."""
    while isinstance(spec, RestrictedAction):
        spec = spec.inner
    return spec.rank


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


def element_identity(spec: ActionSpec) -> GroupElement:
    if isinstance(spec, BiregularAction):
        return (identity(spec.rank), identity(spec.rank))
    return identity(acting_rank(spec))


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
        if images and isinstance(images[0], tuple):
            rank = images[0][0].rank
            return (identity(rank), identity(rank))
        rank = images[0].rank if images else 1
        return identity(rank)
    return out


# ---------------------------------------------------------------------------
# points


def coset_canonical_word(graph: StallingsGraph, w: Word) -> Word:
    """Shortlex-minimal representative of the left coset wH.

    Extends the subgroup graph with a path spelling w^-1 from the
    basepoint, then searches breadth-first (letters in canonical order)
    from the path's endpoint back to the basepoint; the first word found
    is the shortlex-minimal element of wH.
    """
    steps: dict[tuple[int, int], int] = {}
    for u, l, v in graph.edges:
        steps[(u, l)] = v
        steps[(v, -l)] = u
    state = 0
    fresh = graph.vertex_count
    for l in invert(w).letters:
        nxt = steps.get((state, l))
        if nxt is None:
            nxt = fresh
            fresh += 1
            steps[(state, l)] = nxt
            steps[(nxt, -l)] = state
        state = nxt
    if state == 0:
        return identity(w.rank)
    parent: dict[int, tuple[int, int]] = {state: (-1, 0)}
    queue = deque([state])
    while queue:
        v = queue.popleft()
        if v == 0:
            break
        for l in signed_letters(graph.rank):
            nxt = steps.get((v, l))
            if nxt is not None and nxt not in parent:
                parent[nxt] = (v, l)
                queue.append(nxt)
    letters: list[int] = []
    v = 0
    while v != state:
        v, l = parent[v]
        letters.append(l)
    letters.reverse()
    return Word(tuple(letters), w.rank)


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
# separation targets


def separation_targets(
    spec: CosetAction, F: Sequence[Word], E: Sequence[Word]
) -> tuple[list[Word], list[Word]]:
    """Words a separating subgroup must avoid / contain.

    T_avoid collects sigma(x)^-1 sigma(y) over distinct points of E (none
    of which lie in H), T_contain collects sigma(alpha(g^-1)x)^-1 g^-1 sigma(x)
    over F x E (all of which lie in H).  Both facts are asserted here;
    a failure would mean the coset algebra itself is broken.
    """
    if not isinstance(spec, CosetAction):
        raise TypeError("separation targets are defined for coset actions")
    sigma = [canonical_point(spec, x) for x in E]
    if len({w.letters for w in sigma}) != len(sigma):
        raise ValueError("duplicate points in E")
    graph = spec.graph
    t_avoid: list[Word] = []
    for x in sigma:
        for y in sigma:
            if x.letters == y.letters:
                continue
            w = multiply(invert(x), y)
            if stallings.contains(graph, w):
                raise AssertionError(
                    f"separation sanity violated: {w.text()} in H for distinct cosets"
                )
            if all(w.letters != u.letters for u in t_avoid):
                t_avoid.append(w)
    t_contain: list[Word] = []
    for g in F:
        for x in sigma:
            y = act(spec, invert(g), x)
            w = product([invert(y), invert(g), x], spec.rank)
            if not stallings.contains(graph, w):
                raise AssertionError(
                    f"separation sanity violated: {w.text()} escapes H"
                )
            if all(w.letters != u.letters for u in t_contain):
                t_contain.append(w)
    return t_avoid, t_contain


# ---------------------------------------------------------------------------
# orbit structure


@dataclass(frozen=True)
class OrbitClass:
    """One piece of E under the orbit equivalence, tagged with a transitive
    sub-action when one can be certified."""

    action: ActionSpec | None
    points: tuple[Word, ...]
    certified: bool
    stabilizer_note: str = ""


def cyclic_reduction(w: Word) -> tuple[Word, Word]:
    """Split w = u c u^-1 with c cyclically reduced; returns (u, c)."""
    letters = list(w.letters)
    i = 0
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
        i += 1
    u = Word(w.letters[:i], w.rank)
    return u, Word(tuple(letters), w.rank)


def primitive_root(w: Word) -> Word:
    """The primitive r with w = r^m (m maximal); centralizer of w is <r>."""
    if w.is_identity:
        raise ValueError("identity has no primitive root")
    u, c = cyclic_reduction(w)
    n = len(c.letters)
    for period in range(1, n + 1):
        if n % period:
            continue
        if c.letters == c.letters[:period] * (n // period):
            root = Word(c.letters[:period], w.rank)
            return product([u, root, invert(u)], w.rank)
    raise AssertionError("unreachable: full length is always a period")


def orbit_partition(
    spec: ActionSpec,
    E: Sequence[Word],
    F: Sequence[GroupElement],
    bound: int = 6,
    strict: bool = False,
) -> list[OrbitClass]:
    """Partition E into orbit classes.

    Coset and biregular actions are transitive, so they yield a single
    certified class.  Restricted actions are partitioned by bounded
    reachability: x ~ y when some product of at most ``bound`` factors
    from F and its inverses carries x to y.  Such a partition cannot
    certify that distinct classes really are distinct orbits; ``strict``
    turns that uncertainty into an error.
    """
    points = [canonical_point(spec, x) for x in E]
    if len({p.letters for p in points}) != len(points):
        raise ValueError("duplicate points in E")
    if isinstance(spec, CosetAction):
        return [OrbitClass(spec, tuple(points), True, "subgroup itself (transitive)")]
    if isinstance(spec, BiregularAction):
        note = "pairs (h, k) with h x k^-1 = x; for x = 1 the diagonal {(h, h)}"
        return [OrbitClass(spec, tuple(points), True, note)]

    generators: list[GroupElement] = []
    for g in F:
        generators.append(g)
        generators.append(element_invert(g))
    classes: list[list[Word]] = []
    reach_cache: dict[tuple, set[tuple]] = {}

    def reachable(x: Word) -> set[tuple]:
        if x.letters in reach_cache:
            return reach_cache[x.letters]
        seen = {x.letters}
        frontier = [x]
        for _ in range(bound):
            nxt = []
            for p in frontier:
                for g in generators:
                    q = act(spec, g, p)
                    if q.letters not in seen:
                        seen.add(q.letters)
                        nxt.append(q)
            frontier = nxt
        reach_cache[x.letters] = seen
        return seen

    assignments: list[int] = []
    for p in points:
        placed = None
        for ci, members in enumerate(classes):
            rep = members[0]
            if p.letters in reachable(rep) or rep.letters in reachable(p):
                placed = ci
                break
        if placed is None:
            classes.append([p])
        else:
            classes[placed].append(p)
    if strict and len(classes) > 1:
        raise OrbitUndecidableError(
            "bounded search cannot certify distinct orbits; "
            "specify the orbit decomposition manually (one class per build)"
        )
    out = []
    for members in classes:
        sub, note = _class_spec(spec, members[0])
        out.append(OrbitClass(sub, tuple(members), len(classes) == 1, note))
    return out


def _is_diagonal_conjugation(spec: RestrictedAction) -> bool:
    if not isinstance(spec.inner, BiregularAction):
        return False
    return all(
        isinstance(g, tuple) and g[0].letters == g[1].letters for g in spec.images
    )


def _class_spec(spec: RestrictedAction, rep: Word) -> tuple[ActionSpec | None, str]:
    if _is_diagonal_conjugation(spec):
        rank = spec.inner.rank
        if rep.is_identity:
            full = tuple(Word((i,), rank) for i in range(1, rank + 1))
            return CosetAction(rank, full), "stabilizer of 1 is the whole group"
        root = primitive_root(rep)
        return (
            CosetAction(rank, (root,)),
            f"centralizer of {rep.text()} is <{root.text()}>",
        )
    return None, "stabilizer not computed for this restriction"


# ---------------------------------------------------------------------------
# JSON forms


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


def action_from_json(data: dict) -> ActionSpec:
    if not isinstance(data, dict):
        raise TypeError(f"action must be an object, not {data!r}")
    kind = data.get("kind")
    if kind == "coset":
        rank = _json_field(data, "rank", int)
        return CosetAction(rank, tuple(parse_word(t, rank) for t in _json_field(data, "subgroup", list)))
    if kind == "biregular":
        return BiregularAction(_json_field(data, "rank", int))
    if kind == "restricted":
        inner = action_from_json(_json_field(data, "inner", dict))
        images = tuple(parse_element(inner, item) for item in _json_field(data, "images", list))
        return RestrictedAction(inner, images)
    raise ValueError(f"unknown action kind {kind!r}")


_JSON_TYPE_NAMES = {int: "an integer", list: "a list", dict: "an object"}


def _json_field(data: dict, key: str, kind: type):
    """``data[key]``, which must be present and of exactly the JSON type
    ``kind`` (so ``true`` is not an integer)."""
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    value = data[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be {_JSON_TYPE_NAMES[kind]}, not {value!r}")
    return value


def parse_element(spec: ActionSpec, data) -> GroupElement:
    """Parse a group element of ``spec``'s acting group from its JSON form."""
    if isinstance(spec, BiregularAction):
        if not (isinstance(data, (list, tuple)) and len(data) == 2):
            raise ValueError(f"expected a word pair, got {data!r}")
        return (parse_word(data[0], spec.rank), parse_word(data[1], spec.rank))
    return parse_word(data, acting_rank(spec))
