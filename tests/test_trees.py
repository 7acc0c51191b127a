"""Binary trees and forests: structure, serialization, surgery."""

import random

import pytest
from hypothesis import given, strategies as st

from splitmerge.trees import (
    LEAF,
    add_caret,
    forest_graft_pieces,
    forest_num_carets,
    forest_num_leaves,
    forest_union,
    graft,
    is_caret,
    is_leaf,
    left_depth,
    left_vine,
    mirror_forest,
    mirror_tree,
    num_carets,
    num_leaves,
    parse_forest,
    parse_tree,
    random_forest,
    remove_terminal_caret,
    render_forest,
    render_tree,
    right_depth,
    right_vine,
    terminal_pairs,
    tree_union,
    validate_forest,
)


def leaf_starts(f) -> list:
    """Global index of the first leaf of each tree."""
    starts, acc = [], 0
    for t in f:
        starts.append(acc)
        acc += num_leaves(t)
    return starts


def tree_contains(small, big) -> bool:
    """True when big refines small (small is a rooted prefix of big)."""
    if small == LEAF:
        return True
    if big == LEAF:
        return False
    return tree_contains(small[0], big[0]) and tree_contains(small[1], big[1])


def random_tree(rng, carets: int):
    t = LEAF
    for n in range(1, carets + 1):
        t = add_caret((t,), rng.randrange(n))[0]
    return t


def trees(max_leaves=16):
    return st.recursive(
        st.just(LEAF),
        lambda kids: st.tuples(kids, kids),
        max_leaves=max_leaves,
    )


def forests(max_trees=5):
    return st.lists(trees(8), min_size=1, max_size=max_trees).map(tuple)


class TestBasics:
    def test_leaf_and_caret_predicates(self):
        assert is_leaf(LEAF)
        assert not is_caret(LEAF)
        assert is_caret((LEAF, LEAF))
        assert not is_leaf((LEAF, LEAF))

    def test_counts(self):
        t = ((LEAF, LEAF), LEAF)
        assert num_leaves(t) == 3
        assert num_carets(t) == 2
        assert forest_num_leaves((t, LEAF)) == 4
        assert forest_num_carets((t, LEAF)) == 2

    @given(trees())
    def test_leaf_count_is_caret_count_plus_one(self, t):
        assert num_leaves(t) == num_carets(t) + 1

    def test_trivial_forest_has_n_leaves(self):
        assert forest_num_leaves((LEAF,) * 5) == 5

    def test_vines(self):
        assert left_vine(0) == LEAF
        assert left_vine(2) == ((LEAF, LEAF), LEAF)
        assert right_vine(2) == (LEAF, (LEAF, LEAF))
        assert num_carets(left_vine(7)) == 7
        assert num_leaves(right_vine(7)) == 8

    def test_depths(self):
        assert left_depth(left_vine(4)) == 4
        assert right_depth(left_vine(4)) == 1
        assert left_depth(right_vine(4)) == 1
        assert right_depth(right_vine(4)) == 4
        assert left_depth(LEAF) == 0

    @given(trees())
    def test_mirror_swaps_depths(self, t):
        assert left_depth(mirror_tree(t)) == right_depth(t)
        assert mirror_tree(mirror_tree(t)) == t

    @given(forests())
    def test_mirror_forest_involution(self, f):
        assert mirror_forest(mirror_forest(f)) == f


class TestSerialization:
    def test_render_examples(self):
        assert render_tree(LEAF) == "*"
        assert render_tree((LEAF, LEAF)) == "(*,*)"
        assert render_forest((LEAF, (LEAF, LEAF), LEAF)) == "[*,(*,*),*]"

    def test_parse_examples(self):
        assert parse_tree("*") == LEAF
        assert parse_tree("((*,*),*)") == ((LEAF, LEAF), LEAF)
        assert parse_forest("[*,*]") == (LEAF, LEAF)
        assert parse_forest(" [ (*,*) , * ] ") == ((LEAF, LEAF), LEAF)

    @given(trees())
    def test_tree_roundtrip(self, t):
        assert parse_tree(render_tree(t)) == t

    @given(forests())
    def test_forest_roundtrip(self, f):
        assert parse_forest(render_forest(f)) == f

    @given(forests())
    def test_render_forest_accepts_a_list(self, f):
        # the renderer caches by tuple; a list argument renders the same
        text = "[" + ",".join(map(render_tree, f)) + "]"
        assert render_forest(list(f)) == render_forest(f) == text

    @pytest.mark.parametrize("bad", ["", "(", "(*,*", "(*)", "[*", "[]", "[*,]"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_forest(bad if bad.startswith("[") else "[" + bad + "]")

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_forest(())
        with pytest.raises(ValueError):
            validate_forest((LEAF, (LEAF,)))


class TestSurgery:
    def test_leaf_starts(self):
        f = ((LEAF, LEAF), LEAF, (LEAF, LEAF))
        assert leaf_starts(f) == [0, 2, 3]

    def test_add_caret(self):
        f = (LEAF, LEAF)
        assert add_caret(f, 0) == ((LEAF, LEAF), LEAF)
        assert add_caret(f, 1) == (LEAF, (LEAF, LEAF))

    @given(forests(), st.data())
    def test_add_caret_then_remove(self, f, data):
        n = forest_num_leaves(f)
        i = data.draw(st.integers(0, n - 1))
        grown = add_caret(f, i)
        assert forest_num_leaves(grown) == n + 1
        assert i in terminal_pairs(grown)
        assert remove_terminal_caret(grown, i) == f

    def test_terminal_pairs(self):
        f = (((LEAF, LEAF), LEAF), (LEAF, LEAF))
        assert terminal_pairs(f) == {0, 3}

    @given(st.lists(trees(8), min_size=1, max_size=3))
    def test_remove_terminal_caret_only_at_terminal_pairs(self, f):
        f = tuple(f)
        pairs = terminal_pairs(f)
        for i in range(-1, forest_num_leaves(f) + 1):
            if i in pairs:
                assert add_caret(remove_terminal_caret(f, i), i) == f
            else:
                with pytest.raises((ValueError, IndexError)):
                    remove_terminal_caret(f, i)

    def test_tree_union(self):
        a = ((LEAF, LEAF), LEAF)
        b = (LEAF, (LEAF, LEAF))
        u = tree_union(a, b)
        assert tree_contains(a, u) and tree_contains(b, u)
        assert u == ((LEAF, LEAF), (LEAF, LEAF))

    @given(trees(8), trees(8))
    def test_tree_union_is_upper_bound(self, a, b):
        u = tree_union(a, b)
        assert tree_contains(a, u)
        assert tree_contains(b, u)
        assert tree_union(u, a) == u

    @given(forests(3), forests(3))
    def test_forest_union_commutes(self, a, b):
        if len(a) != len(b):
            a = a[: min(len(a), len(b))]
            b = b[: len(a)]
        assert forest_union(a, b) == forest_union(b, a)

    def test_graft(self):
        # hanging [*, (*,*)] below the 2 leaves of [(*,*)]
        assert graft(((LEAF, LEAF),), (LEAF, (LEAF, LEAF))) == (
            (LEAF, (LEAF, LEAF)),
        )

    @given(forests(3), st.data())
    def test_graft_leaf_count(self, base, data):
        n = forest_num_leaves(base)
        pieces = tuple(data.draw(trees(4)) for _ in range(n))
        g = graft(base, pieces)
        assert forest_num_leaves(g) == sum(num_leaves(p) for p in pieces)
        assert tuple(forest_graft_pieces(base, g)) == pieces


class TestRandomGenerators:
    def test_random_tree_caret_budget(self):
        rng = random.Random(7)
        for _ in range(50):
            t = random_tree(rng, 6)
            assert num_carets(t) <= 6
        assert random_tree(rng, 0) == LEAF

    def test_random_forest_shape(self):
        rng = random.Random(7)
        f = random_forest(rng, 3, 5)
        assert len(f) == 3
        assert forest_num_carets(f) <= 5
