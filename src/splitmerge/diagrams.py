"""Split-merge diagrams: pairs of binary forests with matching leaf counts.

A diagram [E-/E+] is a pair of forests with the same number of leaves, at
least one tree on each side. Leaves of E- are glued to leaves of E+ in order.
Diagrams compose when the feet (trees of E+) of the first match the heads
(trees of E-) of the second; composition refines both middles to a common
forest and cancels. A diagram is reduced when no caret over leaves i, i+1 is
terminal on both sides at once; reduced forms are unique per equivalence
class.

Text form: Forest "/" Forest, e.g. "[(*,*)]/[*,*]".
"""

from __future__ import annotations

from . import trees
from .trees import (
    LEAF,
    ParseError,
    add_caret,
    forest_graft_pieces,
    forest_num_leaves,
    forest_union,
    graft,
    is_caret,
    is_leaf,
    remove_terminal_caret,
    render_forest,
    terminal_pairs,
)


class Diagram:
    """Immutable split-merge diagram with cached canonical text form."""

    # _nbr_chi stays unset until steinfarley keeps a neighbor table there
    __slots__ = ("minus", "plus", "_canon", "_nbr_chi")

    def __init__(self, minus, plus):
        trees.validate_forest(minus)
        trees.validate_forest(plus)
        if forest_num_leaves(minus) != forest_num_leaves(plus):
            raise ValueError(
                "sides must have equal leaf counts: "
                f"{forest_num_leaves(minus)} vs {forest_num_leaves(plus)}")
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "_canon", None)

    @classmethod
    def _make(cls, minus, plus) -> "Diagram":
        """Trusted constructor for forests built from valid diagrams.

        Skips validation and the leaf-count check; only surgery and
        composition of already validated diagrams may call it.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "minus", minus)
        object.__setattr__(d, "plus", plus)
        object.__setattr__(d, "_canon", None)
        return d

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    @property
    def heads(self) -> int:
        return len(self.minus)

    @property
    def feet(self) -> int:
        return len(self.plus)

    @property
    def canon(self) -> str:
        c = self._canon
        if c is None:
            c = render_forest(self.minus) + "/" + render_forest(self.plus)
            object.__setattr__(self, "_canon", c)
        return c

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.minus == other.minus and self.plus == other.plus

    def __hash__(self) -> int:
        return hash((self.minus, self.plus))

    def __repr__(self) -> str:
        return f"Diagram({self.canon!r})"

    def __str__(self) -> str:
        return self.canon


def parse_diagram(text: str) -> Diagram:
    sc = trees._Scanner(text)
    minus = sc.forest()
    sc.expect("/")
    plus = sc.forest()
    sc.done()
    return Diagram(minus, plus)


def render_diagram(d: Diagram) -> str:
    return d.canon


# ---------------------------------------------------------------------------
# reduction

def reducible_positions(d: Diagram) -> list:
    """Leaf indices whose caret is terminal on both sides, ascending."""
    return sorted(terminal_pairs(d.minus) & terminal_pairs(d.plus))


def cancel_at(d: Diagram, i: int) -> Diagram:
    """Cancel the common terminal caret over leaves i, i+1."""
    return Diagram._make(remove_terminal_caret(d.minus, i),
                         remove_terminal_caret(d.plus, i))


def reduce(d: Diagram) -> Diagram:
    """Reduced form of d, cancelling the leftmost common caret first.

    The result is independent of cancellation order; the leftmost-first
    strategy just makes the run deterministic.
    """
    while True:
        common = reducible_positions(d)
        if not common:
            return d
        d = cancel_at(d, common[0])


def is_reduced(d: Diagram) -> bool:
    return not (terminal_pairs(d.minus) & terminal_pairs(d.plus))


def expand_at(d: Diagram, i: int) -> Diagram:
    """Unreduced representative: add a caret over leaf i on both sides."""
    return Diagram._make(add_caret(d.minus, i), add_caret(d.plus, i))


# ---------------------------------------------------------------------------
# groupoid structure

def multiply(d1: Diagram, d2: Diagram) -> Diagram:
    """Compose d1 then d2; d1's feet must match d2's heads.

    Both middles (d1.plus, d2.minus) are refined to their common forest, the
    outer forests are re-expanded by grafting the refinement pieces, and the
    result is reduced.
    """
    if d1.feet != d2.heads:
        raise ValueError(
            f"cannot compose: first has {d1.feet} feet, "
            f"second has {d2.heads} heads")
    common = forest_union(d1.plus, d2.minus)
    minus = graft(d1.minus, forest_graft_pieces(d1.plus, common))
    plus = graft(d2.plus, forest_graft_pieces(d2.minus, common))
    return reduce(Diagram._make(minus, plus))


def inverse(d: Diagram) -> Diagram:
    return Diagram._make(d.plus, d.minus)


def identity(n: int) -> Diagram:
    if n < 1:
        raise ValueError("need at least one strand")
    f = (LEAF,) * n
    return Diagram(f, f)


def generator(i: int) -> Diagram:
    """The i-th group generator as a reduced one-head, one-foot diagram.

    generator(0) = [((*,*),*)]/[(*,(*,*))]; generator(i) hangs both trees of
    generator(0) below i extra carets descending to the right.
    """
    if i < 0:
        raise ValueError("generator index must be >= 0")
    minus = ((LEAF, LEAF), LEAF)
    plus = (LEAF, (LEAF, LEAF))
    for _ in range(i):
        minus = (LEAF, minus)
        plus = (LEAF, plus)
    return Diagram((minus,), (plus,))


# ---------------------------------------------------------------------------
# single split / merge moves on the feet

def split_foot(d: Diagram, i: int) -> Diagram:
    """d composed with a split of foot i, computed surgically.

    Equals multiply(d, s), where s has d.feet heads, all single leaves, and
    one caret under head i; d must be reduced and the result is again
    reduced (a single split never creates a cancellable caret).
    """
    if not 1 <= i <= d.feet:
        raise ValueError(f"foot {i} out of range 1..{d.feet}")
    t = d.plus[i - 1]
    if is_caret(t):
        plus = d.plus[:i - 1] + (t[0], t[1]) + d.plus[i:]
        return Diagram._make(d.minus, plus)
    j = forest_num_leaves(d.plus[:i - 1])
    plus = d.plus[:i - 1] + (LEAF, LEAF) + d.plus[i:]
    return Diagram._make(add_caret(d.minus, j), plus)


def merge_feet(d: Diagram, i: int) -> Diagram:
    """d composed with a merge of feet i, i+1, computed surgically.

    Equals multiply(d, m), where m has d.feet single-leaf heads and one
    caret joining feet i and i+1; d must be reduced. When both feet are
    single leaves sitting under a terminal caret of the minus side, the
    merge cancels that caret; a single merge never cascades.
    """
    if not 1 <= i <= d.feet - 1:
        raise ValueError(f"foot pair ({i},{i + 1}) out of range")
    t1 = d.plus[i - 1]
    t2 = d.plus[i]
    if is_leaf(t1) and is_leaf(t2):
        try:  # cancel the minus caret over both feet, if there is one
            return Diagram._make(remove_terminal_caret(
                d.minus, forest_num_leaves(d.plus[:i - 1])),
                d.plus[:i - 1] + (LEAF,) + d.plus[i + 1:])
        except ValueError:
            pass
    plus = d.plus[:i - 1] + ((t1, t2),) + d.plus[i + 1:]
    return Diagram._make(d.minus, plus)


def apply_move(d: Diagram, move) -> Diagram:
    """Apply ("s", i) as split_foot or ("m", i) as merge_feet."""
    kind, i = move
    if kind == "s":
        return split_foot(d, i)
    if kind == "m":
        return merge_feet(d, i)
    raise ValueError(f"unknown move kind {kind!r}")


def invert_move(move):
    kind, i = move
    return ("m" if kind == "s" else "s", i)


def mirror_diagram(d: Diagram) -> Diagram:
    """Left-right reflection; an automorphism of the calculus."""
    return Diagram._make(trees.mirror_forest(d.minus),
                         trees.mirror_forest(d.plus))


# ---------------------------------------------------------------------------
# randomized constructions

def random_diagram(rng, heads: int, feet: int, extra_carets: int) -> Diagram:
    """Random (not necessarily reduced) diagram with the given shape."""
    leaves = max(heads, feet) + extra_carets
    minus = trees.random_forest(rng, heads, leaves - heads)
    plus = trees.random_forest(rng, feet, leaves - feet)
    return Diagram(minus, plus)


def random_group_element(rng, extra_carets: int) -> Diagram:
    return reduce(random_diagram(rng, 1, 1, max(1, extra_carets)))


def random_vertex(rng, feet: int, extra_carets: int) -> Diagram:
    """Random reduced one-head diagram with exactly the given feet count.

    Reduction cancels carets inside trees, never whole trees, so the foot
    count survives.
    """
    return reduce(random_diagram(rng, 1, feet, extra_carets))


def random_expansion(rng, d: Diagram, k: int) -> Diagram:
    """Unreduced representative of d obtained by k common caret insertions."""
    for _ in range(k):
        d = expand_at(d, rng.randrange(forest_num_leaves(d.minus)))
    return d
