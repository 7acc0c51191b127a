"""Finite rooted ordered binary trees and forests, as leaf-depth tuples.

A tree is the tuple of its leaf depths, left to right: a leaf is LEAF =
(0,), a caret is (1, 1), and ((*,*),*) is (2, 2, 1). Leaf i at depth d is a
dyadic interval of length 2**-d, and the leaves tile [0,1] in order; a tree
has exactly one such tuple (Cannon-Floyd-Parry, Enseign. Math. 42 (1996),
section 2), so no tree code recurses. A forest is a tuple of one or more
trees. Leaves of a forest are numbered left to right across all trees,
starting at 0.

Surgery reads heap numbers (_heaps): a leaf at depth d is 2**d + its index
among the 2**d dyadic intervals of its tree, and siblings are 2m, 2m + 1. A
tree's first leaf is its only power of two, and its last leaf, 2**(e + 1) - 1
at depth e, is odd, so no sibling pair 2m, 2m + 1 spans two trees.

Text grammar (whitespace insignificant):

    Tree   := "*" | "(" Tree "," Tree ")"
    Forest := "[" Tree ("," Tree)* "]"

Rendering is canonical: no whitespace, "*" for leaves. Parsed trees nest at
most MAX_DEPTH carets deep, a bound on the size of the input.
"""

from __future__ import annotations

import functools
import itertools

LEAF: tuple = (0,)
_FEW_LEAVES = ((), LEAF, (1, 1))  # by leaf count; built forests share them
MAX_DEPTH = 256


def num_carets(t) -> int:
    return len(t) - 1


def forest_num_leaves(f) -> int:
    return sum(map(len, f))


def forest_num_carets(f) -> int:
    return forest_num_leaves(f) - len(f)


def left_depth(t) -> int:
    """Number of carets on the path from the root to the leftmost leaf."""
    return t[0]


def right_depth(t) -> int:
    """Number of carets on the path from the root to the rightmost leaf."""
    return t[-1]


def left_vine(k: int):
    """Tree of k carets whose spine descends leftward: left_vine(2) = ((*,*),*)."""
    if k < 0:
        raise ValueError("caret count must be >= 0")
    return (k,) + tuple(range(k, 0, -1))


def right_vine(k: int):
    """Tree of k carets whose spine descends rightward: right_vine(2) = (*,(*,*))."""
    if k < 0:
        raise ValueError("caret count must be >= 0")
    return tuple(range(1, k + 1)) + (k,)


def join(left, right):
    """The tree whose root caret has the given left and right subtrees."""
    return tuple([d + 1 for d in left + right])


def split_root(t):
    """(left, right): the two subtrees below the root caret of t."""
    if len(t) == 1:
        raise ValueError("a leaf has no root caret")
    k = _span(t, 0, 1)
    return tuple([d - 1 for d in t[:k]]), tuple([d - 1 for d in t[k:]])


def mirror_tree(t):
    return t[::-1]


def mirror_forest(f):
    return tuple(t[::-1] for t in reversed(f))


def _push(stack: list, d: int) -> int:
    """Push leaf depth d onto stack (the increasing depths of the subtrees
    finished so far), merging each caret it completes; returns the top."""
    while stack and stack[-1] == d:
        stack.pop()
        d -= 1
    stack.append(d)
    return d


def _span(t, i: int, depth: int) -> int:
    """End of the subtree at the given depth whose leftmost leaf is t[i]."""
    stack = []
    while _push(stack, t[i]) != depth:
        i += 1
    return i + 1


def _heaps(f) -> list:
    """The heap number of every leaf of the forest f, left to right."""
    out = []
    for t in f:
        n = prev = 0
        for d in t:
            n = (n + 1) << (d - prev) if d >= prev else (n + 1) >> (prev - d)
            out.append(n)
            prev = d
    return out


# ---------------------------------------------------------------------------
# parsing / rendering

class ParseError(ValueError):
    """Raised on malformed tree/forest/diagram text, with the failing position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _parse(text: str, layout: str) -> list:
    """The forests of text, laid out as layout says: "T$" is one tree, "[T]$"
    a forest and "[T]/[T]$" a diagram, where "$" is the end of the text.

    One loop reads the text and skips whitespace. A leaf's depth is the
    number of carets open at it; closers holds the character each open
    caret waits for ("," then ")"), and closing holds from a leaf until the
    next comma or the end of its tree.
    """
    forests, depths, closers = [[]], [], []
    at = 0
    closing = False
    for pos, ch in enumerate(itertools.chain(text, [""])):
        want = closers[-1] if closing else layout[at]
        if closing and ch == want:
            if ch == ",":
                closers[-1] = ")"
                closing = False
            else:
                closers.pop()
        elif want == "T" and ch == "(":
            if len(closers) == MAX_DEPTH:
                raise ParseError(
                    f"tree nested deeper than {MAX_DEPTH} carets", pos)
            closers.append(",")
        elif want == "T" and ch == "*":
            depths.append(len(closers))
            closing = True
        elif ch.isspace():
            continue
        elif want == "$":
            if ch:
                raise ParseError(f"trailing input {ch!r}", pos)
            return [tuple(f) for f in forests]
        elif want in "[]/" and ch == want:  # punctuation of the layout
            at += 1
            if ch == "/":
                forests.append([])
        elif ch == "," and want == "]":  # another tree of the forest
            at -= 1
        else:
            wanted = "'*' or '('" if want == "T" else repr(want)
            shown = repr(ch) if ch else "end of input"
            raise ParseError(f"expected {wanted}, found {shown}", pos)
        if closing and not closers:  # the tree is complete
            forests[-1].append(tuple(depths))
            depths = []
            closing = False
            at += 1


def parse_tree(text: str):
    return _parse(text, "T$")[0][0]


def parse_forest(text: str):
    return _parse(text, "[T]$")[0]


def render_tree(t) -> str:
    out, opened = [], 0
    for d, n in zip(t, _heaps((t,))):
        # the trailing ones of n count the carets that leaf closes, and one
        # more at the last leaf, whose ")," the slice below drops
        closed = (n ^ (n + 1)).bit_length() - 1
        out.append("(" * (d - opened) + "*" + ")" * closed + ",")
        opened = d - closed
    return "".join(out)[:-2]


def render_forest(f) -> str:
    return _render_forest(tuple(f))


# neighbouring vertices share forests, so most renders are repeats; and a
# fragment holds far fewer distinct trees than forests, so a forest that has
# left its cache is joined from trees still in theirs
_render_tree = functools.lru_cache(maxsize=1024)(render_tree)


@functools.lru_cache(maxsize=1024)
def _render_forest(f: tuple) -> str:
    return "[" + ",".join(map(_render_tree, f)) + "]"


def validate_forest(f):
    """Reject anything but a nonempty tuple of trees, each a tuple of int
    leaf depths whose dyadic intervals tile [0,1] in order."""
    if not isinstance(f, tuple) or len(f) == 0:
        raise ValueError(f"forest must be a nonempty tuple of trees: {f!r}")
    for t in f:
        stack = []  # only a tree's depths merge to [0]
        for d in t if type(t) is tuple else (None,):
            if type(d) is not int:
                break
            _push(stack, d)
        else:
            if stack == [0]:
                continue
        raise ValueError(f"not a tree: {t!r}")


# ---------------------------------------------------------------------------
# leaf-indexed surgery

def add_caret(f, i: int):
    """Replace global leaf i with a caret over two fresh leaves."""
    if i >= 0:
        for k, t in enumerate(f):
            if i < len(t):
                d = t[i] + 1
                return f[:k] + (t[:i] + (d, d) + t[i + 1:],) + f[k + 1:]
            i -= len(t)
    raise IndexError("leaf index out of range")


def terminal_pairs(f) -> set:
    """Global leaf indices i such that leaves i, i+1 hang from a single caret."""
    h = _heaps(f)
    # leaf i is a left child 2m, never its tree's last, and i + 1 is 2m + 1
    return {i for i, m in enumerate(h) if not m & 1 and h[i + 1] == m + 1}


def _without_caret(f, i: int):
    """f less the caret over leaves i, i+1, or None when there is none."""
    for k, t in enumerate(f):
        if 0 <= i < len(t):
            if t[i + 1:i + 2] == (t[i],) and not _heaps((t[:i + 1],))[-1] & 1:
                return f[:k] + (t[:i] + (t[i] - 1,) + t[i + 2:],) + f[k + 1:]
            return None
        i -= len(t)
    return None


def remove_terminal_caret(f, i: int):
    """Collapse the caret over leaves i, i+1 back to a single leaf."""
    out = _without_caret(f, i)
    if out is None:
        raise ValueError(f"no terminal caret at leaf {i}")
    return out


def _from_heaps(heaps) -> tuple:
    """The forest whose leaves have these heap numbers, left to right."""
    starts = [k for k, n in enumerate(heaps) if not n & (n - 1)] + [len(heaps)]
    depths = [n.bit_length() - 1 for n in heaps]
    return tuple([tuple(depths[a:b]) if b - a > 2 else _FEW_LEAVES[b - a]
                  for a, b in zip(starts, starts[1:])])


def cancel_common_carets(f, g):
    """(f, g) with every caret terminal on both sides cancelled, in one
    left-to-right pass over the paired leaves; f and g themselves when
    nothing cancels.

    The stacks hold the result's heap numbers. A new leaf merges with the top
    while it and the top are siblings 2m, 2m + 1 on both sides; a tree's
    first leaf, odd only as a root 1, never does, as 0 is never stacked.
    """
    ms, ns = [], []
    for m, n in zip(_heaps(f), _heaps(g)):
        while m & n & 1 and ms and ms[-1] == m - 1 and ns[-1] == n - 1:
            del ms[-1], ns[-1]
            m, n = m >> 1, n >> 1
        ms.append(m)
        ns.append(n)
    if len(ms) == forest_num_leaves(f):
        return f, g
    return _from_heaps(ms), _from_heaps(ns)


# ---------------------------------------------------------------------------
# refinement order on trees/forests

def _tree_union(a, b):
    out = []
    i = j = 0
    while i < len(a):
        if a[i] >= b[j]:  # a is finer here: its leaves below b's leaf j
            k = _span(a, i, b[j])
            out += a[i:k]
            i, j = k, j + 1
        else:
            k = _span(b, j, a[i])
            out += b[j:k]
            i, j = i + 1, k
    return tuple(out)


def forest_union(f, g):
    """Smallest forest refining both f and g, tree by tree."""
    if len(f) != len(g):
        raise ValueError("forests must have the same number of trees")
    return tuple(a if a == b else _tree_union(a, b) for a, b in zip(f, g))


def regraft(f, small, big):
    """f with its leaf j replaced by the part of big below leaf j of small.

    big refines small tree by tree, and f has as many leaves as small.
    """
    if small == big:
        return f
    pieces = []  # per leaf of small, big's depths below it less its own
    for s, b in zip(small, big):
        j = 0
        for d in s:
            k = _span(b, j, d)
            pieces.append([x - d for x in b[j:k]])
            j = k
    it = iter(pieces)
    # the inner loop draws one piece per leaf e of t
    return tuple(tuple([e + x for e in t for x in next(it)]) for t in f)


# ---------------------------------------------------------------------------
# randomized constructions (used for testing and verification sampling)

def random_forest(rng, trees: int, carets: int):
    f = [[0] for _ in range(trees)]
    for n in range(trees, trees + carets):
        i = rng.randrange(n)
        for t in f:
            if i < len(t):
                t[i:i + 1] = (t[i] + 1,) * 2
                break
            i -= len(t)
    return tuple(tuple(t) if len(t) > 2 else _FEW_LEAVES[len(t)] for t in f)
