"""Reduced words in a finitely generated free group.

A word is a tuple of nonzero signed integers: ``1..rank`` are the
generators, negative values their inverses.  The text form uses ``a-z``
for generators and ``A-Z`` for inverses, with ``"1"`` (or the empty
string) for the identity.  Every ``Word`` is freely reduced; the
constructors below enforce this.  ``Record`` is the base of the
package's value classes.
"""

from __future__ import annotations

import reprlib
from typing import Iterable

MAX_RANK = 26


class Record:
    """An immutable value whose fields are the names in ``__slots__``, in
    order, but ``"__dict__"``, which a ``cached_property`` needs.  The
    constructor takes one value per field in that order, the order
    ``__reduce__`` passes them back, and raises ``TypeError`` naming the
    class on any other count; a subclass that checks its values runs its
    checks first, then ``Record.__init__``.  ``Word`` alone stores its two
    fields itself.  Equal records share a class and equal fields, the hash
    is the field tuple's, the repr is ``Name(field=value, ...)``, and
    assigning or deleting any attribute raises ``AttributeError``.  A
    plain class, not a frozen dataclass: the decorator runs six generated
    ``exec``s per class at every import of the package, and
    ``dataclasses`` loads ``inspect`` into every process."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}")
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle would restore slots through the raising __setattr__
        return type(self), self._values()


class Word(Record):
    __slots__ = ("letters", "rank")

    def __init__(self, letters: tuple[int, ...], rank: int) -> None:
        if not 1 <= rank <= MAX_RANK:
            raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {rank}")
        for l in letters:
            if l == 0 or abs(l) > rank:
                raise ValueError(f"letter {l} out of range for rank {rank}")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError(f"word {letters} is not freely reduced")
        # stored directly: Words are built by the thousand per pass
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    def __repr__(self) -> str:
        return f"Word({self.text()!r}, rank={self.rank})"

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def text(self) -> str:
        if not self.letters:
            return "1"
        return "".join(
            chr(ord("a") + l - 1) if l > 0 else chr(ord("A") - l - 1)
            for l in self.letters
        )


def identity(rank: int) -> Word:
    return Word((), rank)


def free_reduce(letters: Iterable[int], rank: int) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return Word(tuple(stack), rank)


def parse_word(text: str, rank: int) -> Word:
    """Parse ``a-z``/``A-Z`` text; ``"1"`` and ``""`` denote the identity."""
    if not isinstance(text, str):
        raise TypeError(f"word {reprlib.repr(text)} must be a string")
    if text in ("", "1"):
        return identity(rank)
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"invalid letter {ch!r} in word {reprlib.repr(text)}")
    return free_reduce(letters, rank)


def multiply(u: Word, v: Word) -> Word:
    if u.rank != v.rank:
        raise ValueError(f"rank mismatch: {u.rank} vs {v.rank}")
    return free_reduce(u.letters + v.letters, u.rank)


def invert(w: Word) -> Word:
    return Word(tuple(-l for l in reversed(w.letters)), w.rank)
