"""Involutive alphabets: finite letter sets with an inverse pairing.

Letters are opaque strings.  The formal inverse of a base letter ``x`` is
spelled ``x^-1``.  Self-inverse letters (``inv(a) == a``) are legal and can be
built with an explicit :class:`InvolutiveAlphabet`; :func:`involutive_closure`
always produces paired inverses.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import AlphabetError, UnknownLetterError

INVERSE_SUFFIX = "^-1"


class InvolutiveAlphabet:
    """A finite set of letters together with a total involution on it."""

    __slots__ = ("letters", "_inverse")

    def __init__(self, letters: Iterable[str], inverse: Mapping[str, str]):
        self.letters = frozenset(letters)
        self._inverse = dict(inverse)
        if not self.letters:
            raise AlphabetError("alphabet must not be empty")
        for a in self.letters:
            b = self._inverse.get(a)
            if b is None:
                raise AlphabetError(f"letter {a!r} has no inverse assigned")
            if b not in self.letters:
                raise AlphabetError(f"inverse of {a!r} is {b!r}, which is not a letter")
            if self._inverse.get(b) != a:
                raise AlphabetError(f"inverse map is not an involution at {a!r}")
        if set(self._inverse) != set(self.letters):
            extra = set(self._inverse) - set(self.letters)
            raise AlphabetError(f"inverse map mentions unknown letters: {sorted(extra)}")

    def inv(self, a: str) -> str:
        try:
            return self._inverse[a]
        except KeyError:
            raise UnknownLetterError(f"letter {a!r} is not in the alphabet") from None

    def __contains__(self, a: object) -> bool:
        return a in self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.sorted_letters())

    def sorted_letters(self) -> list[str]:
        return sorted(self.letters)

    def inverse_map(self) -> dict[str, str]:
        return dict(self._inverse)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvolutiveAlphabet):
            return NotImplemented
        return self.letters == other.letters and self._inverse == other._inverse

    def __hash__(self) -> int:
        return hash((self.letters, tuple(sorted(self._inverse.items()))))

    def __repr__(self) -> str:
        return f"InvolutiveAlphabet({self.sorted_letters()})"


def involutive_closure(base_letters: Iterable[str]) -> InvolutiveAlphabet:
    """Attach a fresh formal inverse ``x^-1`` to every base letter ``x``.

    The base letters must be distinct and must not already be spelled as
    formal inverses, so applying the closure twice is rejected rather than
    silently stacked.
    """
    base = list(base_letters)
    if not base:
        raise AlphabetError("need at least one base letter")
    seen: set[str] = set()
    for a in base:
        if a in seen:
            raise AlphabetError(f"duplicate base letter {a!r}")
        if a.endswith(INVERSE_SUFFIX):
            raise AlphabetError(f"base letter {a!r} is already spelled as a formal inverse")
        seen.add(a)
    inverse: dict[str, str] = {}
    for a in base:
        b = a + INVERSE_SUFFIX
        inverse[a] = b
        inverse[b] = a
    return InvolutiveAlphabet(inverse.keys(), inverse)


def merge_alphabets(x: InvolutiveAlphabet, y: InvolutiveAlphabet) -> InvolutiveAlphabet:
    """Union of two involutive alphabets.

    Shared letters must carry the same inverse in both; automata over either
    input are automata over the result.  Two equal alphabets, one object or
    two, merge to ``x`` itself, so a pair of automata over one alphabet
    builds and checks no third one.
    """
    if x is y or x == y:
        return x
    merged = x.inverse_map()
    for a, b in y.inverse_map().items():
        if a in merged and merged[a] != b:
            raise AlphabetError(
                f"involution conflict on shared letter {a!r}: {merged[a]!r} vs {b!r}"
            )
        merged[a] = b
    return InvolutiveAlphabet(merged.keys(), merged)
