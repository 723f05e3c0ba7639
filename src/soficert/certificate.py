"""The certificate: its data model and its reader.

The reader and the README's format section define the file format.  The
verifier reads certificates through this module alone; the writer lives
in the builder, outside the verifier's trusted code.  Parsing checks the
shape of every field and leaves permutations and equivariance to the verifier.
"""

from __future__ import annotations

import itertools
import json
import re
import reprlib
from fractions import Fraction
from functools import cached_property

from .actions import (
    BiregularAction, GroupElement, acting_rank, action_from_json, canonical_point,
    parse_element, point_rank,
)
from .permutations import compose, identity_perm, inverse
from .words import Record, parse_word


class SoficApproximation(Record):
    """Generator images in Sym(carrier).  ``group_kind`` is "free" for a
    single free group (``rank`` arrays) or "product" for G x G (``2 *
    rank`` arrays, left-factor generators first)."""

    __slots__ = ("group_kind", "rank", "size", "images", "__dict__")

    def __init__(
        self, group_kind: str, rank: int, size: int, images: tuple[tuple[int, ...], ...]
    ) -> None:
        expected = rank if group_kind == "free" else 2 * rank
        if len(images) != expected:
            raise ValueError(f"expected {expected} generator images, got {len(images)}")
        Record.__init__(self, group_kind, rank, size, images)

    @cached_property
    def inverse_images(self) -> list[tuple[int, ...] | None]:
        """The inverse of each generator image, computed when a letter
        first needs it."""
        return [None] * len(self.images)

    def _letter_image(self, letter: int) -> tuple[int, ...]:
        """phi of one letter: +-(i + 1) stands for image i or its inverse."""
        i = abs(letter) - 1
        if letter > 0:
            return self.images[i]
        if self.inverse_images[i] is None:
            self.inverse_images[i] = inverse(self.images[i])
        return self.inverse_images[i]

    def letters(self, g: GroupElement) -> tuple[int, ...]:
        """g's letters, whose images phi folds; a pair's right word
        follows its left one, each letter shifted by ``rank`` to name the
        right-factor images."""
        if isinstance(g, tuple):
            left, right = g
            shift = self.rank
            return left.letters + tuple(l + shift if l > 0 else l - shift for l in right.letters)
        return g.letters

    def permutation_of(self, g: GroupElement) -> tuple[int, ...]:
        """phi(g): the left fold of its letters' images under ``compose``,
        one composition per letter after the first; phi(1) is the identity."""
        letters = self.letters(g)
        if not letters:
            return identity_perm(self.size)
        perm = self._letter_image(letters[0])
        for l in letters[1:]:
            perm = compose(perm, self._letter_image(l))
        return perm


class OrbitWitness(Record):
    """Finite orbit data: injections pi_s : E -> B for each s in S.

    ``pi`` rows align with ``s_points``, columns with the certificate's E,
    and values index into ``b_labels``.
    """

    __slots__ = ("s_points", "b_labels", "pi")


class Certificate(Record):
    __slots__ = ("action", "F", "E", "epsilon", "approx", "witness", "provenance")


# ---------------------------------------------------------------------------
# the file format


class CertificateFormatError(ValueError):
    """Schema-level problem in a certificate file; names the failing field."""


# a zero denominator has no nonzero digit
_EPSILON = re.compile(r"[0-9]+(/0*[1-9][0-9]*)?")


def epsilon_from_json(value) -> Fraction:
    """The tolerance as job configs, certificates and ``verify --epsilon``
    write it: a nonnegative integer or a "p/q" string.  Booleans, floats
    and decimal or exponent strings raise ValueError."""
    if type(value) is int and value >= 0 or isinstance(value, str) and _EPSILON.fullmatch(value):
        return Fraction(value)
    raise ValueError(
        f"epsilon must be a nonnegative integer or 'p/q' string, not {reprlib.repr(value)}"
    )


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise CertificateFormatError(f"{where}: {what}")


def _indices_below(values, bound: int) -> bool:
    """Whether every entry is an int (not a bool) in range(bound), decided
    on the whole array: the set of entry types, then min and max."""
    return not values or set(map(type, values)) == {int} and min(values) >= 0 and max(values) < bound


def _expect_each_below(values, bound: int, where: str, what: str) -> None:
    """Entry by entry, raise at the first one that is not an int in
    range(bound); ``what`` is formatted with that entry, shortened by
    ``reprlib`` so a deeply nested entry gives a one-line message."""
    for x in values:
        if not (type(x) is int and 0 <= x < bound):
            raise CertificateFormatError(f"{where}: {what.format(reprlib.repr(x))}")


# every field but the optional, free-form provenance
CERTIFICATE_FIELDS = ("action", "F", "E", "epsilon", "carrier_size",
                      "generator_images", "S", "B", "pi")


def certificate_from_dict(data: dict) -> Certificate:
    """Validate the JSON form field by field and rebuild the Certificate.

    Structural problems (missing fields, wrong shapes, out-of-range
    indices) raise CertificateFormatError naming the field; whether the
    arrays are genuine permutations is a verification question, not a
    format one, and is left to the verifier.
    """
    _expect(isinstance(data, dict), "certificate", "top level must be an object")
    for key in CERTIFICATE_FIELDS:
        _expect(key in data, key, "missing field")
    for key in data:
        _expect(key in CERTIFICATE_FIELDS or key == "provenance", key, "unknown field")
    try:
        action = action_from_json(data["action"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"action: {exc}") from exc
    _expect(isinstance(data["F"], list), "F", "must be a list")
    _expect(isinstance(data["E"], list), "E", "must be a list")
    try:
        F = tuple(parse_element(action, item) for item in data["F"])
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError(f"F: {exc}") from exc
    try:
        E = tuple(parse_word(t, point_rank(action)) for t in data["E"])
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError(f"E: {exc}") from exc
    _expect(len({w.letters for w in E}) == len(E), "E", "duplicate points")
    for w, t in zip(E, data["E"]):
        canon = canonical_point(action, w)
        _expect(canon.letters == w.letters, "E",
                f"{t!r} is not the canonical name of its point (expected {canon.text()!r})")
    try:
        epsilon = epsilon_from_json(data["epsilon"])
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from exc

    size = data["carrier_size"]
    _expect(type(size) is int and size >= 1, "carrier_size", "must be a positive integer")
    group_kind = "product" if isinstance(action, BiregularAction) else "free"
    rank = acting_rank(action)
    expected_arrays = rank if group_kind == "free" else 2 * rank
    imgs = data["generator_images"]
    _expect(isinstance(imgs, list) and len(imgs) == expected_arrays,
            "generator_images", f"expected {expected_arrays} arrays")
    for i, arr in enumerate(imgs):
        _expect(isinstance(arr, list) and len(arr) == size,
                f"generator_images[{i}]", f"expected length {size}")
        if not _indices_below(arr, size):
            _expect_each_below(arr, size, f"generator_images[{i}]", "entry {} out of range")
    s_points = data["S"]
    _expect(isinstance(s_points, list), "S", "must be a list")
    _expect(_indices_below(s_points, size), "S", "entries must be carrier indices")
    _expect(sorted(set(s_points)) == s_points, "S", "must be strictly increasing")
    b_labels = data["B"]
    _expect(isinstance(b_labels, list), "B", "must be a list")
    for l in b_labels:
        if type(l) is not int:
            raise CertificateFormatError(f"B: label {reprlib.repr(l)} must be an integer")
    _expect(len(set(b_labels)) == len(b_labels), "B", "labels must be distinct")
    pi = data["pi"]
    _expect(isinstance(pi, list) and len(pi) == len(s_points),
            "pi", f"expected {len(s_points)} rows")
    rows_ok = set(map(type, pi)) <= {list} and set(map(len, pi)) <= {len(E)}
    if not (rows_ok and _indices_below(list(itertools.chain.from_iterable(pi)), len(b_labels))):
        # the first bad row or entry, in file order
        for i, row in enumerate(pi):
            _expect(isinstance(row, list) and len(row) == len(E),
                    f"pi[{i}]", f"expected {len(E)} entries")
            _expect_each_below(row, len(b_labels), f"pi[{i}]", "entry {} is not a B index")
    approx = SoficApproximation(group_kind, rank, size, tuple(map(tuple, imgs)))
    witness = OrbitWitness(tuple(s_points), tuple(b_labels), tuple(map(tuple, pi)))
    provenance = data.get("provenance", {})
    _expect(isinstance(provenance, dict), "provenance", "must be an object")
    return Certificate(action, F, E, epsilon, approx, witness, provenance)


def load_certificate(path: str) -> Certificate:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CertificateFormatError(f"file: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CertificateFormatError(f"json: {exc}") from exc
    return certificate_from_dict(data)
