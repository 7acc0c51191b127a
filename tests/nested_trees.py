"""Reference trees as nested tuples, for checking splitmerge.trees.

A leaf is (), a caret is the pair (left, right), a forest is a tuple of
trees. The functions are the recursive nested-tuple implementations that
splitmerge.trees replaced with loops over leaf-depth tuples; `depths`
converts a nested tree to that format, so the two can be compared.
"""

from hypothesis import strategies as st

from splitmerge.trees import MAX_DEPTH, ParseError

LEAF: tuple = ()


def depths(t, d: int = 0) -> tuple:
    """The leaf depths of a nested tree, left to right."""
    if t == ():
        return (d,)
    return depths(t[0], d + 1) + depths(t[1], d + 1)


def forest_depths(f) -> tuple:
    return tuple(depths(t) for t in f)


def trees(max_leaves=16):
    return st.recursive(st.just(LEAF), lambda kids: st.tuples(kids, kids),
                        max_leaves=max_leaves)


def forests(max_trees=5, max_leaves=8):
    return st.lists(trees(max_leaves), min_size=1,
                    max_size=max_trees).map(tuple)


def num_leaves(t) -> int:
    if t == ():
        return 1
    return num_leaves(t[0]) + num_leaves(t[1])


def forest_num_leaves(f) -> int:
    return sum(num_leaves(t) for t in f)


# ---------------------------------------------------------------------------
# parsing / rendering

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            shown = repr(got) if got else "end of input"
            raise ParseError(f"expected {ch!r}, found {shown}", self.pos)
        self.pos += 1

    def done(self):
        self.skip_ws()
        if self.pos < len(self.text):
            raise ParseError(
                f"trailing input {self.text[self.pos]!r}", self.pos)

    def tree(self, depth: int = 0):
        ch = self.peek()
        if ch == "*":
            self.pos += 1
            return LEAF
        if ch == "(":
            if depth == MAX_DEPTH:
                raise ParseError(
                    f"tree nested deeper than {MAX_DEPTH} carets", self.pos)
            self.pos += 1
            left = self.tree(depth + 1)
            self.expect(",")
            right = self.tree(depth + 1)
            self.expect(")")
            return (left, right)
        shown = repr(ch) if ch else "end of input"
        raise ParseError(f"expected '*' or '(', found {shown}", self.pos)

    def forest(self):
        self.expect("[")
        trees = [self.tree()]
        while self.peek() == ",":
            self.pos += 1
            trees.append(self.tree())
        self.expect("]")
        return tuple(trees)


def parse_tree(text: str):
    sc = _Scanner(text)
    t = sc.tree()
    sc.done()
    return t


def parse_forest(text: str):
    sc = _Scanner(text)
    f = sc.forest()
    sc.done()
    return f


def parse_diagram(text: str):
    """The two forests of diagram text, leaf counts unchecked."""
    sc = _Scanner(text)
    minus = sc.forest()
    sc.expect("/")
    plus = sc.forest()
    sc.done()
    return minus, plus


def render_tree(t) -> str:
    if t == ():
        return "*"
    return "(" + render_tree(t[0]) + "," + render_tree(t[1]) + ")"


def render_forest(f) -> str:
    return "[" + ",".join(render_tree(t) for t in f) + "]"


# ---------------------------------------------------------------------------
# leaf-indexed surgery

def _tree_add_caret(t, i: int):
    if t == ():
        if i != 0:
            raise IndexError("leaf index out of range")
        return (LEAF, LEAF)
    nl = num_leaves(t[0])
    if i < nl:
        return (_tree_add_caret(t[0], i), t[1])
    return (t[0], _tree_add_caret(t[1], i - nl))


def add_caret(f, i: int):
    """Replace global leaf i with a caret over two fresh leaves."""
    for k, t in enumerate(f):
        if k == len(f) - 1 or i < (n := num_leaves(t)):
            return f[:k] + (_tree_add_caret(t, i),) + f[k + 1:]
        i -= n


def _tree_terminal_pairs(t, offset: int, out: list) -> int:
    if t == ():
        return 1
    if t[0] == () and t[1] == ():
        out.append(offset)
        return 2
    left = _tree_terminal_pairs(t[0], offset, out)
    return left + _tree_terminal_pairs(t[1], offset + left, out)


def terminal_pairs(f) -> set:
    """Global leaf indices i such that leaves i, i+1 hang from a single caret."""
    out: list = []
    acc = 0
    for t in f:
        acc += _tree_terminal_pairs(t, acc, out)
    return set(out)


def _tree_remove_terminal(t, i: int):
    if t == ():
        if i == 0:
            raise ValueError("no caret over this leaf and the next")
        return t, 1
    if i == 0 and t[0] == () and t[1] == ():
        return LEAF, None
    left, nl = _tree_remove_terminal(t[0], i)
    if nl is None:
        return (left, t[1]), None
    right, nr = _tree_remove_terminal(t[1], i - nl)
    if nr is None:
        return (t[0], right), None
    return t, nl + nr


def remove_terminal_caret(f, i: int):
    """Collapse the caret over leaves i, i+1 back to a single leaf."""
    j = i
    for k, t in enumerate(f):
        tree, missed = _tree_remove_terminal(t, j)
        if missed is None:
            return f[:k] + (tree,) + f[k + 1:]
        j -= missed
    raise ValueError(f"no terminal caret at leaf {i}")


# ---------------------------------------------------------------------------
# refinement order

def tree_union(a, b):
    """Smallest tree refining both a and b (root-aligned)."""
    if a == ():
        return b
    if b == ():
        return a
    return (tree_union(a[0], b[0]), tree_union(a[1], b[1]))


def forest_union(f, g):
    return tuple(tree_union(a, b) for a, b in zip(f, g))


def _tree_pieces(small, big, out: list):
    if small == ():
        out.append(big)
        return
    if big == ():
        raise ValueError("big does not refine small")
    _tree_pieces(small[0], big[0], out)
    _tree_pieces(small[1], big[1], out)


def forest_graft_pieces(small, big) -> list:
    """The subtrees of big hanging below each leaf of small, leaf order."""
    out: list = []
    for s, b in zip(small, big):
        _tree_pieces(s, b, out)
    return out


def _tree_graft(t, it):
    if t == ():
        return next(it)
    return (_tree_graft(t[0], it), _tree_graft(t[1], it))


def graft(f, pieces):
    """Replace the j-th leaf of f with pieces[j]."""
    it = iter(pieces)
    return tuple(_tree_graft(t, it) for t in f)


def random_forest(rng, trees: int, carets: int):
    f = (LEAF,) * trees
    n = trees
    for _ in range(carets):
        f = add_caret(f, rng.randrange(n))
        n += 1
    return f

