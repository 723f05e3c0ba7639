import hashlib
import itertools
import random
from unittest import mock

import pytest
import hypothesis.strategies as st
from hypothesis import given

from soficert import stallings
from soficert.builder import contains
from soficert.certificate import SoficApproximation
from soficert.permutations import compose, inverse
from soficert.quotients import (
    CoreTooLargeError,
    CosetTable,
    InseparableError,
    coset_of,
    hall_completion,
    image_group,
    left_coset_of,
)
from soficert.stallings import core_graph
from soficert.words import Word, free_reduce, identity, invert, multiply, parse_word


def w2(t):
    return parse_word(t, 2)


# ---------------------------------------------------------------------------
# independent membership oracle: breadth-first products of the generators,
# no graphs involved.  Sound and, up to the depth bound, complete for the
# short words we freeze below.


def naive_members(gen_texts, rank, depth):
    gens = [parse_word(t, rank) for t in gen_texts]
    factors = gens + [invert(g) for g in gens]
    seen = {identity(rank).letters}
    frontier = [identity(rank)]
    for _ in range(depth):
        new = []
        for u in frontier:
            for f in factors:
                v = multiply(u, f)
                if v.letters not in seen:
                    seen.add(v.letters)
                    new.append(v)
        frontier = new
    return seen


def test_membership_against_product_oracle():
    members = naive_members(["aa", "b"], 2, 6)
    graph = core_graph([w2("aa"), w2("b")], 2)
    for text in ("1", "aa", "b", "aabb", "aaB", "baa", "aabaa"):
        assert (parse_word(text, 2).letters in members) == contains(graph, w2(text))
    # short non-members: oracle at depth 6 can't produce them and the graph agrees
    for text in ("a", "ab", "ba", "abba"):
        assert parse_word(text, 2).letters not in members
        assert not contains(graph, w2(text))


def test_contains_frozen():
    graph = core_graph([w2("aa"), w2("b")], 2)
    assert contains(graph, w2("aabaa"))
    assert contains(graph, w2("bbbb"))
    assert not contains(graph, w2("abba"))  # b reads a loop only at the basepoint
    assert not contains(graph, w2("a"))


def shape(graph):
    return graph.vertex_count, tuple(sorted(graph.edges))


def test_core_graph_frozen_shapes():
    assert shape(core_graph([w2("aa"), w2("b")], 2)) == (2, ((0, 1, 1), (0, 2, 0), (1, 1, 0)))
    assert shape(core_graph([w2("a")], 2)) == (1, ((0, 1, 0),))
    assert shape(core_graph([], 2)) == (1, ())
    assert shape(core_graph([w2("abA")], 2)) == (2, ((0, 1, 1), (1, 2, 1)))
    assert shape(core_graph([w2("ab"), w2("ba")], 2)) == (
        3,
        ((0, 1, 1), (0, 2, 2), (1, 2, 0), (2, 1, 0)),
    )


@st.composite
def generator_sets(draw, rank=2):
    n = draw(st.integers(min_value=0, max_value=3))
    texts = st.text(alphabet="abAB"[: 2 * rank], min_size=1, max_size=5)
    gens = []
    for _ in range(n):
        word = parse_word(draw(texts), rank)
        if not word.is_identity:
            gens.append(word)
    return gens


@given(generator_sets())
def test_core_graph_order_independent(gens):
    forward = core_graph(gens, 2)
    assert core_graph(list(reversed(gens)), 2) == forward


@given(generator_sets())
def test_core_graph_absorbs_redundant_generator(gens):
    if len(gens) < 2:
        return
    redundant = multiply(gens[0], invert(gens[1]))
    assert core_graph(gens + [redundant], 2) == core_graph(gens, 2)


@given(generator_sets(), st.integers(min_value=0, max_value=20))
def test_generated_elements_are_members(gens, pick):
    if not gens:
        return
    graph = core_graph(gens, 2)
    factors = gens + [invert(g) for g in gens]
    word = identity(2)
    for i in range(3):
        word = multiply(word, factors[(pick + i) % len(factors)])
    assert contains(graph, word)


# ---------------------------------------------------------------------------
# the worklist fold against the reference fold it replaced


def _reference_fold(edges: set[tuple[int, int, int]], n: int) -> tuple[set[tuple[int, int, int]], dict[int, int]]:
    """Fold: repeatedly merge the smallest clashing vertex pair until deterministic.

    Returns the folded edge set over representative vertices and the map
    vertex -> representative.
    """
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    while True:
        canon = {(find(u), l, find(v)) for u, l, v in edges}
        clash: tuple[int, int] | None = None
        out: dict[tuple[int, int], int] = {}
        inc: dict[tuple[int, int], int] = {}
        for u, l, v in sorted(canon):
            for table, key, other in ((out, (u, l), v), (inc, (v, l), u)):
                seen = table.get(key)
                if seen is None:
                    table[key] = other
                elif seen != other:
                    pair = (min(seen, other), max(seen, other))
                    if clash is None or pair < clash:
                        clash = pair
        if clash is None:
            return canon, {v: find(v) for v in range(n)}
        a, b = clash
        parent[find(b)] = find(a)


@st.composite
def fold_inputs(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    letter = st.sampled_from([l for i in range(1, rank + 1) for l in (i, -i)])
    words = st.lists(letter, min_size=1, max_size=7).map(lambda ls: free_reduce(ls, rank))
    gens = draw(st.lists(words, max_size=3))
    avoid = draw(st.lists(words, max_size=3))
    return rank, gens, avoid


def fold_outcome(rank, gens, avoid):
    graph = core_graph(gens, rank)
    try:
        table = hall_completion(graph, avoid)
    except InseparableError as exc:
        return graph, ("inseparable", exc.word)
    return graph, (table.size, table.images)


@given(fold_inputs())
def test_worklist_fold_matches_reference_fold(case):
    rank, gens, avoid = case
    graph, separator = fold_outcome(rank, gens, avoid)
    with mock.patch.object(stallings, "_fold", lambda edges, n: _reference_fold(edges, n)[0]):
        assert fold_outcome(rank, gens, avoid) == (graph, separator)
    # a folded core graph has no hair: a non-basepoint vertex of degree
    # <= 1 would need a generator to read some letter and then its inverse
    degree = [0] * graph.vertex_count
    for u, _l, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    assert all(d >= 2 for d in degree[1:])


def _reference_hall(graph, avoid):
    """Hall completion by folding: attach a raw path per avoid word, fold
    everything with the reference fold, number canonically and complete
    each letter map in ascending order.  Returns ``fold_outcome``'s
    separator: the table's (size, images), or the first avoid word that
    lies in the subgroup."""
    edges = set(graph.edges)
    fresh = graph.vertex_count
    for w in avoid:
        cur = 0
        for l in w.letters:
            edges.add((cur, l, fresh) if l > 0 else (fresh, -l, cur))
            cur, fresh = fresh, fresh + 1
    merged = stallings._canonical(graph.rank, _reference_fold(edges, fresh)[0])
    for w in avoid:
        if contains(merged, w):  # the paths are a tree, so w lies in the subgroup
            return "inseparable", w
    images = []
    for l in range(1, graph.rank + 1):
        img = {u: v for u, lab, v in merged.edges if lab == l}
        sources = [v for v in range(merged.vertex_count) if v not in img]
        targets = sorted(set(range(merged.vertex_count)) - set(img.values()))
        img.update(zip(sources, targets))
        images.append(tuple(img[v] for v in range(merged.vertex_count)))
    return merged.vertex_count, tuple(images)


@given(fold_inputs())
def test_hall_completion_matches_reference_hall(case):
    rank, gens, avoid = case
    graph, separator = fold_outcome(rank, gens, avoid)
    assert separator == _reference_hall(graph, avoid)


@pytest.mark.parametrize(
    "gens, avoid",
    [
        (["a"], ["b", "ba", "bab"]),  # each avoid word runs along the previous one's fresh path
        (["abA"], ["b", "bA", "aab"]),
        (["aa", "b"], ["a", "baab", "ab"]),  # the second word lies in the subgroup
        (["aa"], ["b", "ab", "bB", "aa"]),  # the fourth is the identity
    ],
)
def test_hall_completion_matches_reference_hall_frozen(gens, avoid):
    avoid = [w2(t) for t in avoid]
    graph, separator = fold_outcome(2, [w2(t) for t in gens], avoid)
    assert separator == _reference_hall(graph, avoid)


def test_hall_completion_spells_without_folding():
    def refuse(*args):
        raise AssertionError("hall_completion folded or re-traced")

    graph = core_graph([w2("abA"), w2("bb")], 2)
    avoid = [w2("b"), w2("ab"), w2("aba")]
    expected = _reference_hall(graph, avoid)
    with mock.patch.object(stallings, "_fold", refuse):
        table = hall_completion(graph, avoid)
        assert (table.size, table.images) == expected
        with pytest.raises(InseparableError):
            hall_completion(graph, [w2("b"), w2("abbA")])


def test_cascade_folds_to_one_vertex():
    n = 2000
    gens = [w2("a" * n), w2("a" * (n + 1)), w2("b" * n), w2("b" * (n - 1))]
    assert shape(core_graph(gens, 2)) == (1, ((0, 1, 0), (0, 2, 0)))


# ---------------------------------------------------------------------------
# the spelled core graph against the raw loops it replaced


def _reference_core_graph(generators, rank):
    """Each generator laid out as its own loop of fresh vertices through
    the basepoint, folded by the reference fold and numbered canonically."""
    edges = set()
    fresh = 1
    for w in generators:
        if w.is_identity:
            continue
        cur = 0
        for i, l in enumerate(w.letters):
            nxt = 0 if i == len(w.letters) - 1 else fresh
            if nxt:
                fresh += 1
            edges.add((cur, l, nxt) if l > 0 else (nxt, -l, cur))
            cur = nxt
    return stallings._canonical(rank, _reference_fold(edges, fresh)[0])


@st.composite
def prefix_sharing_generators(draw):
    """Up to four generators, each a stem drawn from at most two then a
    tail, so generators share prefixes; a word may be the identity or a
    single letter, and may end in an inverse letter."""
    rank = draw(st.integers(min_value=1, max_value=3))
    letter = st.sampled_from([l for i in range(1, rank + 1) for l in (i, -i)])
    word = st.lists(letter, max_size=5).map(lambda ls: free_reduce(ls, rank))
    stems = draw(st.lists(word, min_size=1, max_size=2))
    gens = draw(st.lists(st.tuples(st.sampled_from(stems), word), max_size=4))
    return rank, [multiply(stem, tail) for stem, tail in gens]


@given(prefix_sharing_generators())
def test_core_graph_matches_reference_core_graph(case):
    rank, gens = case
    assert core_graph(gens, rank) == _reference_core_graph(gens, rank)


def folded_edges(gens, rank=2):
    """The edge sets ``core_graph`` hands to ``_fold``."""
    seen = []
    fold = stallings._fold

    def spy(edges, n):
        seen.append(set(edges))
        return fold(edges, n)

    with mock.patch.object(stallings, "_fold", spy):
        graph = core_graph(gens, rank)
    assert graph == _reference_core_graph(gens, rank)
    [edges] = seen
    return edges


def test_core_graph_spells_prefixes_and_folds_closing_edges():
    # a one-letter generator spells nothing and closes at the basepoint
    assert folded_edges([w2("a")]) == {(0, 1, 0)}
    assert folded_edges([w2("B"), w2("1")]) == {(0, 2, 0)}
    # a last inverse letter l closes with the edge (0, -l, end)
    assert folded_edges([w2("aB")]) == {(0, 1, 1), (0, 2, 1)}
    # a shared prefix is spelled once
    assert folded_edges([w2("abA"), w2("abb")]) == {(0, 1, 1), (1, 2, 2), (0, 1, 2), (2, 2, 0)}
    assert folded_edges([parse_word("cAb", 3), parse_word("cA", 3)], 3) == {
        (0, 3, 1), (2, 1, 1), (2, 2, 0), (0, 1, 1)}


def test_cascade_reaches_fold_as_spelled_tree_plus_closing_edges():
    # a^200 and a^201 share 199 letters, b^200 and b^199 share 198: the
    # spelled tree has 399 edges, plus one closing edge per generator
    gens = [w2("a" * 200), w2("a" * 201), w2("b" * 200), w2("b" * 199)]
    assert len(folded_edges(gens)) == 403


# ---------------------------------------------------------------------------
# Hall completions


def test_hall_frozen_tables():
    t = hall_completion(core_graph([w2("a")], 2), [w2("b")])
    assert (t.size, t.images) == (2, ((0, 1), (1, 0)))
    t = hall_completion(core_graph([], 2), [w2("a")])
    assert (t.size, t.images) == (2, ((1, 0), (0, 1)))
    t = hall_completion(core_graph([w2("a")], 2), [w2("b"), w2("B")])
    assert (t.size, t.images) == (3, ((0, 1, 2), (1, 2, 0)))


def random_reduced(rng, length):
    """A reduced rank-2 word of ``length`` letters drawn from ``rng``."""
    letters = [rng.choice((1, -1, 2, -2))]
    while len(letters) < length:
        l = rng.choice((1, -1, 2, -2))
        if l != -letters[-1]:
            letters.append(l)
    return Word(tuple(letters), 2)


def hall_digest(gens, avoid):
    table = hall_completion(core_graph(gens, 2), avoid)
    return table.size, hashlib.sha256(repr(table.images).encode()).hexdigest()


def test_hall_long_inputs_frozen():
    # avoid words sharing a 200-letter prefix with the generator w a w^-1
    w = random_reduced(random.Random(0), 200)
    assert w.letters[-1] > 0  # so every word below is reduced as written
    gen = multiply(multiply(w, w2("a")), invert(w))
    avoid = [multiply(w, w2(t)) for t in ("b", "ab", "ba")]
    assert hall_digest([gen], avoid) == (
        203, "4a1866a0b0de0fc54989649b10cfd065e92061bbae62c5ec303819191a5af16f"
    )
    # random avoid words of odd length over random generators of even
    # length: no avoid word lies in the subgroup
    rng = random.Random(0)
    gens = [random_reduced(rng, 2 * rng.randint(25, 35)) for _ in range(3)]
    avoid = [random_reduced(rng, 2 * rng.randint(25, 35) + 1) for _ in range(3)]
    assert hall_digest(gens, avoid) == (
        351, "1a89b826c67f46fdd0f21afba464813db0520fdfb9370e88005bc80795ed4650"
    )


def test_hall_inseparable():
    with pytest.raises(InseparableError):
        hall_completion(core_graph([w2("a")], 2), [w2("a")])
    with pytest.raises(InseparableError):
        hall_completion(core_graph([w2("aa"), w2("b")], 2), [w2("baab")])
    with pytest.raises(InseparableError):
        hall_completion(core_graph([], 2), [w2("aA")])  # identity is in every subgroup


@given(generator_sets(), st.lists(st.text(alphabet="abAB", min_size=1, max_size=4), max_size=3))
def test_hall_postconditions(gens, avoid_texts):
    graph = core_graph(gens, 2)
    avoid = []
    for t in avoid_texts:
        word = parse_word(t, 2)
        if not word.is_identity and not contains(graph, word):
            avoid.append(word)
    table = hall_completion(graph, avoid)
    # H <= K: subgroup generators close up at the base coset
    for g in gens:
        assert coset_of(table, g) == 0
    # K avoids the prescribed words: each one leaves the base coset
    for word in avoid:
        assert coset_of(table, word) != 0


def test_left_coset_label_is_inverse_walk():
    table = hall_completion(core_graph([w2("a")], 2), [w2("b"), w2("B")])
    for t in ("", "a", "b", "ab", "Ba", "bab"):
        assert left_coset_of(table, w2(t)) == coset_of(table, invert(w2(t)))


@pytest.mark.parametrize("label", [coset_of, left_coset_of])
@pytest.mark.parametrize("text", ["a", "c", "1"])
def test_coset_labels_refuse_a_word_of_another_rank(label, text):
    # a rank-3 word on a rank-2 table: "a" would walk to a coset as if it
    # were rank 2, and "c" has no image array to walk
    table = hall_completion(core_graph([w2("a")], 2), [w2("b"), w2("B")])
    with pytest.raises(ValueError, match="word rank 3 != table rank 2"):
        label(table, parse_word(text, 3))


def test_left_labels_separate_left_cosets():
    # u, v name the same left coset of K iff u^-1 v is in K
    table = hall_completion(core_graph([w2("a")], 2), [w2("b"), w2("B")])
    words = [w2(t) for t in ("", "a", "b", "ab", "ba", "bb", "aB")]
    for u in words:
        for v in words:
            same = coset_of(table, multiply(invert(u), v)) == 0
            assert (left_coset_of(table, u) == left_coset_of(table, v)) == same


# ---------------------------------------------------------------------------
# coset tables


def test_left_coset_action_is_a_homomorphism():
    # generator i moves the left-coset labels by the inverse of its walk,
    # so the fold of a word's letters is its left multiplication of the
    # cosets, and a homomorphism
    table = hall_completion(core_graph([w2("a")], 2), [w2("b"), w2("B")])
    phi = SoficApproximation("free", 2, table.size, table.inverses).permutation_of
    words = [w2(t) for t in ("", "a", "b", "ab", "ba", "Ba", "bAB")]
    for u in words:
        for v in words:
            assert phi(multiply(u, v)) == compose(phi(u), phi(v))
            assert phi(u)[left_coset_of(table, v)] == left_coset_of(table, multiply(u, v))


def test_image_group_and_cap():
    table = hall_completion(core_graph([w2("a")], 2), [w2("b"), w2("B")])
    assert len(image_group(table.images, table.size, 10**6)) == 3
    with pytest.raises(CoreTooLargeError):
        image_group(table.images, table.size, 2)


def test_coset_table_validates():
    with pytest.raises(ValueError):
        CosetTable(2, 3, ((0, 0, 1), (0, 1, 2)))
    with pytest.raises(ValueError):
        CosetTable(2, 3, ((0, 1, 2),))
    for img in ((0, 1, 3), (0, 1), (0, 1, 2, 0)):  # out of range, short, long
        with pytest.raises(ValueError, match=r"is not a permutation of 3 points"):
            CosetTable(1, 3, (img,))
