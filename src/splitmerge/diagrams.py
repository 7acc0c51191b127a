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
    add_caret,
    forest_num_leaves,
    forest_union,
    join,
    left_vine,
    regraft,
    remove_terminal_caret,
    render_forest,
    right_vine,
    split_root,
    terminal_pairs,
)


class Diagram:
    """Immutable split-merge diagram; canon joins two cached forest renders.
    The two forests are set once, through their slots' own descriptors."""

    # _nbr_chi stays unset until steinfarley keeps a neighbor table there
    __slots__ = ("minus", "plus", "_nbr_chi")

    def __init__(self, minus, plus):
        trees.validate_forest(minus)
        trees.validate_forest(plus)
        if forest_num_leaves(minus) != forest_num_leaves(plus):
            raise ValueError(
                "sides must have equal leaf counts: "
                f"{forest_num_leaves(minus)} vs {forest_num_leaves(plus)}")
        _set_minus(self, minus)
        _set_plus(self, plus)

    @classmethod
    def _make(cls, minus, plus) -> "Diagram":
        """Trusted constructor for forests built from valid diagrams.

        Skips validation and the leaf-count check; only surgery, composition,
        parse_diagram and random_diagram, whose forests are known valid, may
        call it.
        """
        d = object.__new__(cls)
        _set_minus(d, minus)
        _set_plus(d, plus)
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
        return render_forest(self.minus) + "/" + render_forest(self.plus)

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


_set_minus, _set_plus = Diagram.minus.__set__, Diagram.plus.__set__


def parse_diagram(text: str) -> Diagram:
    minus, plus = trees._parse(text, "[T]/[T]$")
    if forest_num_leaves(minus) != forest_num_leaves(plus):
        return Diagram(minus, plus)  # raises the leaf-count error
    return Diagram._make(minus, plus)


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
    """Reduced form of d, in one left-to-right pass over the paired leaves.

    Reduced forms are unique, so the result equals cancelling the leftmost
    common caret (cancel_at) until none is left.
    """
    minus, plus = trees.cancel_common_carets(d.minus, d.plus)
    return d if minus is d.minus else Diagram._make(minus, plus)


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
    minus = regraft(d1.minus, d1.plus, common)
    plus = regraft(d2.plus, d2.minus, common)
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
    minus = left_vine(2)
    plus = right_vine(2)
    for _ in range(i):
        minus = join(LEAF, minus)
        plus = join(LEAF, plus)
    return Diagram((minus,), (plus,))


# ---------------------------------------------------------------------------
# single split / merge moves on the feet

def foot_surgery(plus, move) -> tuple:
    """(head, j, stepped, unstepped) of a split ("s", i) or merge ("m", i)
    on feet plus. head(minus, j) is the move's step on the heads, None for
    none: a split at a leaf foot adds the caret over leaves j, j + 1
    (add_caret), and a merge of two leaf feet cancels it, or finds none to
    cancel (trees._without_caret gives None). The feet become stepped when
    the heads step, and unstepped when they do not."""
    kind, i = move
    if type(i) is not int:
        raise ValueError(f"foot {i!r} is not an int")
    f, left = len(plus), plus[:i - 1]
    if kind == "s" and 1 <= i <= f:
        if plus[i - 1] != LEAF:
            return None, None, None, left + split_root(plus[i - 1]) + plus[i:]
        return (add_caret, forest_num_leaves(left),
                left + (LEAF, LEAF) + plus[i:], None)
    if kind == "m" and 1 <= i < f:
        t1, t2 = plus[i - 1], plus[i]
        joined = left + (join(t1, t2),) + plus[i + 1:]
        if t1 == LEAF and t2 == LEAF:
            return (trees._without_caret, forest_num_leaves(left),
                    left + (LEAF,) + plus[i + 1:], joined)
        return None, None, None, joined
    raise ValueError(f"foot {i} out of range 1..{f}" if kind == "s" else
                     f"foot pair ({i},{i + 1}) out of range" if kind == "m"
                     else f"unknown move kind {kind!r}")


def split_foot(d: Diagram, i: int) -> Diagram:
    """d composed with a split of foot i, computed surgically.

    Equals multiply(d, s), where s has d.feet heads, all single leaves, and
    one caret under head i; d must be reduced and the result is again
    reduced (a single split never creates a cancellable caret).
    """
    return apply_move(d, ("s", i))


def merge_feet(d: Diagram, i: int) -> Diagram:
    """d composed with a merge of feet i, i+1, computed surgically.

    Equals multiply(d, m), where m has d.feet single-leaf heads and one
    caret joining feet i and i+1; d must be reduced. When both feet are
    single leaves sitting under a terminal caret of the minus side, the
    merge cancels that caret; a single merge never cascades.
    """
    return apply_move(d, ("m", i))


def apply_move(d: Diagram, move) -> Diagram:
    """Apply ("s", i) as split_foot or ("m", i) as merge_feet."""
    head, j, stepped, unstepped = foot_surgery(d.plus, move)
    minus = head and head(d.minus, j)
    if minus is None:
        return Diagram._make(d.minus, unstepped)
    return Diagram._make(minus, stepped)


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
    """Random (not necessarily reduced) diagram with the given shape.

    Needs heads >= 1, feet >= 1 and extra_carets >= 0 (ValueError
    otherwise); the two forests then have max(heads, feet) + extra_carets
    leaves each.
    """
    for name, value, least in (("heads", heads, 1), ("feet", feet, 1),
                               ("extra_carets", extra_carets, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    leaves = max(heads, feet) + extra_carets
    minus = trees.random_forest(rng, heads, leaves - heads)
    plus = trees.random_forest(rng, feet, leaves - feet)
    return Diagram._make(minus, plus)


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
