"""Height characters on split-merge diagrams.

Two integer quantities generate everything here: count_left (carets above the
leftmost leaf of a forest's first tree) and count_right (carets above the
rightmost leaf of its last tree). The primitive characters measure their
excess on the plus side over the minus side, and a general character is a
rational combination a*chi0 + b*chi1. On one-head-one-foot diagrams these are
group homomorphisms to the rationals; on arbitrary diagrams they are
invariants of the reduced form usable as Morse heights.

Heights that are only compared are compared as scaled integers: with D the
lcm of the denominators of a and b, (A, B) = (a*D, b*D) gives D times the
height, and D > 0 keeps order, sign and gap ratios. Fractions appear only
where a value is printed or returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .trees import left_depth, right_depth


def count_left(forest) -> int:
    """Carets on the path to the leftmost leaf of the first tree."""
    return left_depth(forest[0])


def count_right(forest) -> int:
    """Carets on the path to the rightmost leaf of the last tree."""
    return right_depth(forest[-1])


def chi0(d) -> int:
    return count_left(d.plus) - count_left(d.minus)


def chi1(d) -> int:
    return count_right(d.plus) - count_right(d.minus)


@dataclass(frozen=True)
class Character:
    """Rational combination a*chi0 + b*chi1.

    a and b are ints or Fractions (ValueError for a float or a bool).
    scale D and ints (A, B) = (a*D, b*D) are the integer form; they are not
    fields, so equality, hashing, printing and JSON see only a and b.
    """

    a: Fraction
    b: Fraction

    def __init__(self, a, b):
        for c in (a, b):
            if not (type(c) is int or isinstance(c, Fraction)):
                raise ValueError(f"character coefficient {c!r} is not an "
                                 "int or Fraction")
        a, b = Fraction(a), Fraction(b)
        scale = lcm(a.denominator, b.denominator)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", (int(a * scale), int(b * scale)))

    @classmethod
    def parse(cls, text: str) -> "Character":
        """Parse "a,b" where each part is an integer or p/q fraction."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'a,b', got {text!r}")
        try:
            return cls(Fraction(parts[0].strip()), Fraction(parts[1].strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad character {text!r}: {exc}") from None

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}

    def __str__(self) -> str:
        return f"{self.a},{self.b}"


def chi(character: Character, d) -> Fraction:
    return character.a * chi0(d) + character.b * chi1(d)


def epsilon(character: Character) -> Fraction:
    """Smallest possible nonzero |chi| jump along an edge.

    chi changes along any single split or merge by -a, -b, +a, +b or 0, so
    the gap is the least absolute value among the nonzero coefficients.
    """
    vals = [abs(c) for c in (character.a, character.b) if c != 0]
    if not vals:
        raise ValueError("the zero character has no height gap")
    return min(vals)


@dataclass(frozen=True, slots=True)
class MorseSpec:
    """A character, a tie-breaking direction on feet, and a foot-count band.

    secondary +1 breaks chi ties by feet, -1 by negated feet; the band (p, q)
    with 2 <= p <= q bounds the foot counts under consideration, and is kept
    as that tuple whatever pair of ints was given.
    """

    character: Character
    secondary: int
    band: tuple

    def __post_init__(self):
        if not isinstance(self.character, Character):
            raise ValueError(
                f"character must be a Character, got {self.character!r}")
        if type(self.secondary) is not int or self.secondary not in (1, -1):
            raise ValueError("secondary must be +1 or -1")
        try:
            p, q = self.band
        except (TypeError, ValueError):
            raise ValueError(
                f"band must be a pair (p, q), got {self.band!r}") from None
        if not (type(p) is int and type(q) is int):
            raise ValueError("band bounds must be integers")
        if not 2 <= p <= q:
            raise ValueError(f"band must satisfy 2 <= p <= q, got ({p},{q})")
        object.__setattr__(self, "band", (p, q))


def refined_height(spec: MorseSpec, d):
    """Lexicographic height (chi(d), secondary * d.feet)."""
    return (chi(spec.character, d), spec.secondary * d.feet)


def refined_compare(spec: MorseSpec, x, y) -> int:
    """-1, 0 or +1 as x's refined height compares to y's."""
    hx = refined_height(spec, x)
    hy = refined_height(spec, y)
    return (hx > hy) - (hx < hy)


def check_morse_on_fragment(spec: MorseSpec, fragment) -> list:
    """Edges of the fragment violating the Morse gap property.

    Along every edge either |chi| jumps by at least epsilon or chi is
    constant and the foot counts differ (so the refined height still
    separates the endpoints). Returns a list of (i, j, reason) tuples;
    empty means the property holds.
    """
    char = spec.character
    eps = epsilon(char)
    a, b = char.ints
    gap = int(eps * char.scale)
    out = []
    c0 = fragment.chi0_values
    c1 = fragment.chi1_values
    ft = fragment.feet_values
    for i, j in fragment.edges:
        # scaled by char.scale, so the gap test runs on integers
        dchi = abs(a * (c0[j] - c0[i]) + b * (c1[j] - c1[i]))
        if dchi:
            if dchi < gap:
                out.append((i, j, f"0 < |dchi| = "
                           f"{Fraction(dchi, char.scale)} < {eps}"))
        elif ft[i] == ft[j]:
            out.append((i, j, "chi tie with equal feet"))
    return out
