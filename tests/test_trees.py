"""Binary trees and forests: structure, serialization, surgery."""

import ast
import inspect
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

import nested_trees as ref
from splitmerge import trees as trees_mod
from splitmerge.diagrams import parse_diagram
from splitmerge.trees import (
    LEAF,
    MAX_DEPTH,
    ParseError,
    add_caret,
    forest_num_carets,
    forest_num_leaves,
    forest_union,
    join,
    left_depth,
    left_vine,
    mirror_forest,
    mirror_tree,
    num_carets,
    parse_forest,
    parse_tree,
    random_forest,
    regraft,
    remove_terminal_caret,
    render_forest,
    render_tree,
    right_depth,
    right_vine,
    split_root,
    terminal_pairs,
    validate_forest,
)


def leaf_starts(f) -> list:
    """Global index of the first leaf of each tree."""
    starts, acc = [], 0
    for t in f:
        starts.append(acc)
        acc += forest_num_leaves((t,))
    return starts


def breakpoints(t) -> set:
    """Right ends of the tree's leaves as dyadic intervals of [0, 1]."""
    return set(accumulate(Fraction(1, 2 ** d) for d in t))


def tree_contains(small, big) -> bool:
    """True when big refines small: every cut of small is a cut of big."""
    return breakpoints(small) <= breakpoints(big)


def random_tree(rng, carets: int):
    t = LEAF
    for n in range(1, carets + 1):
        t = add_caret((t,), rng.randrange(n))[0]
    return t


def trees(max_leaves=16):
    return ref.trees(max_leaves).map(ref.depths)


def forests(max_trees=5):
    return ref.forests(max_trees).map(ref.forest_depths)


CARET = parse_tree("(*,*)")


class TestBasics:
    def test_counts(self):
        t = parse_tree("((*,*),*)")
        assert forest_num_leaves((t,)) == 3
        assert num_carets(t) == 2
        assert forest_num_leaves((t, LEAF)) == 4
        assert forest_num_carets((t, LEAF)) == 2

    @given(ref.trees())
    def test_leaf_count_is_caret_count_plus_one(self, nested):
        t = ref.depths(nested)
        assert forest_num_leaves((t,)) == num_carets(t) + 1
        assert forest_num_leaves((t,)) == ref.num_leaves(nested)

    def test_trivial_forest_has_n_leaves(self):
        assert forest_num_leaves((LEAF,) * 5) == 5

    def test_vines(self):
        assert left_vine(0) == LEAF
        assert left_vine(2) == parse_tree("((*,*),*)")
        assert right_vine(2) == parse_tree("(*,(*,*))")
        assert num_carets(left_vine(7)) == 7
        assert forest_num_leaves((right_vine(7),)) == 8

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
        # the mirror's text is the text read backwards, brackets swapped
        backwards = render_tree(t)[::-1].translate(str.maketrans("()", ")("))
        assert render_tree(mirror_tree(t)) == backwards

    @given(forests())
    def test_mirror_forest_involution(self, f):
        assert mirror_forest(mirror_forest(f)) == f

    @given(trees(), trees())
    def test_join_and_split_root(self, a, b):
        t = join(a, b)
        assert render_tree(t) == f"({render_tree(a)},{render_tree(b)})"
        assert split_root(t) == (a, b)

    def test_leaf_has_no_root_caret(self):
        with pytest.raises(ValueError):
            split_root(LEAF)

    def test_no_function_calls_itself(self):
        # tree depth costs loop iterations, never stack frames
        module = ast.parse(inspect.getsource(trees_mod))
        recursive = [fn.name for fn in ast.walk(module)
                     if isinstance(fn, ast.FunctionDef)
                     for call in ast.walk(fn) if isinstance(call, ast.Call)
                     and getattr(call.func, "id", None) == fn.name]
        assert recursive == []


class TestSerialization:
    def test_render_examples(self):
        assert render_tree(LEAF) == "*"
        assert render_tree(CARET) == "(*,*)"
        assert render_forest((LEAF, left_vine(1), LEAF)) == "[*,(*,*),*]"

    def test_parse_examples(self):
        assert parse_tree("*") == LEAF
        assert parse_tree("((*,*),*)") == left_vine(2)
        assert parse_forest("[*,*]") == (LEAF, LEAF)
        assert parse_forest(" [ (*,*) , * ] ") == (right_vine(1), LEAF)

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

    @pytest.mark.parametrize("parse, text, pos", [
        (parse_tree, "T", 0), (parse_forest, "[T]", 1),
        (parse_forest, "[(T,*)]", 2), (parse_forest, "[*,T]", 3),
    ])
    def test_parse_rejects_letters_where_a_tree_is_due(self, parse, text, pos):
        with pytest.raises(ParseError) as got:
            parse(text)
        assert str(got.value) == (
            f"expected '*' or '(', found 'T' (at position {pos})")

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_forest(())
        with pytest.raises(ValueError):
            validate_forest((LEAF, (LEAF,)))

    @pytest.mark.parametrize("tree", [
        (), (1,), (2, 1, 2), (1, 1, 1), (2, 2, 1, 1), (0, 0), (True,),
        (False,), (True, True), (-1,), (1.0, 1.0), [0], "*", None,
    ])
    def test_validate_rejects_non_trees(self, tree):
        with pytest.raises(ValueError):
            validate_forest((LEAF, tree))

    @given(forests())
    def test_validate_accepts_every_forest(self, f):
        validate_forest(f)

    @given(ref.forests(3), ref.forests(3), st.text(" ,*()[]/", max_size=4),
           st.data())
    def test_scanner_builds_only_valid_forests(self, f, g, noise, data):
        # parse_diagram skips validate_forest: the grammar implies validity
        for text, layout in ((ref.render_tree(f[0]), "T$"),
                             (ref.render_forest(f), "[T]$"),
                             (ref.render_forest(f) + "/" + ref.render_forest(g),
                              "[T]/[T]$")):
            at = data.draw(st.integers(0, len(text)))
            try:
                parsed = trees_mod._parse(text[:at] + noise + text[at:],
                                          layout)
            except ParseError:
                continue
            for forest in parsed:
                validate_forest(forest)


class TestSurgery:
    def test_leaf_starts(self):
        f = parse_forest("[(*,*),*,(*,*)]")
        assert leaf_starts(f) == [0, 2, 3]

    def test_add_caret(self):
        f = (LEAF, LEAF)
        assert add_caret(f, 0) == parse_forest("[(*,*),*]")
        assert add_caret(f, 1) == parse_forest("[*,(*,*)]")

    @given(forests(), st.data())
    def test_add_caret_then_remove(self, f, data):
        n = forest_num_leaves(f)
        i = data.draw(st.integers(0, n - 1))
        grown = add_caret(f, i)
        assert forest_num_leaves(grown) == n + 1
        assert i in terminal_pairs(grown)
        assert remove_terminal_caret(grown, i) == f

    def test_terminal_pairs(self):
        f = parse_forest("[((*,*),*),(*,*)]")
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
        a = parse_tree("((*,*),*)")
        b = parse_tree("(*,(*,*))")
        (u,) = forest_union((a,), (b,))
        assert tree_contains(a, u) and tree_contains(b, u)
        assert u == parse_tree("((*,*),(*,*))")

    @given(trees(8), trees(8))
    def test_tree_union_is_upper_bound(self, a, b):
        (u,) = forest_union((a,), (b,))
        assert tree_contains(a, u)
        assert tree_contains(b, u)
        assert breakpoints(u) == breakpoints(a) | breakpoints(b)
        assert forest_union((u,), (a,)) == (u,)

    @given(forests(3), forests(3))
    def test_forest_union_commutes(self, a, b):
        if len(a) != len(b):
            a = a[: min(len(a), len(b))]
            b = b[: len(a)]
        assert forest_union(a, b) == forest_union(b, a)

    def test_forest_union_needs_equal_tree_counts(self):
        with pytest.raises(ValueError):
            forest_union((LEAF,), (LEAF, LEAF))

    def test_graft(self):
        # hanging [*, (*,*)] below the 2 leaves of [(*,*)]
        assert regraft((CARET,), (LEAF, LEAF), parse_forest("[*,(*,*)]")) == (
            parse_tree("(*,(*,*))"),
        )

    @given(forests(3), st.data())
    def test_graft_leaf_count(self, base, data):
        n = forest_num_leaves(base)
        pieces = tuple(data.draw(trees(4)) for _ in range(n))
        g = regraft(base, (LEAF,) * n, pieces)
        assert forest_num_leaves(g) == forest_num_leaves(pieces)
        assert regraft((LEAF,) * n, base, g) == pieces


class TestAgainstNestedReference:
    """Every flat operation agrees with the recursive nested-tuple code it
    replaced, through the nested-to-depths converter."""

    @given(ref.forests(), st.data())
    def test_add_caret(self, f, data):
        i = data.draw(st.integers(0, ref.forest_num_leaves(f) - 1))
        assert add_caret(ref.forest_depths(f), i) == ref.forest_depths(
            ref.add_caret(f, i))

    @given(ref.forests())
    def test_add_caret_out_of_range(self, f):
        for i in (-1, ref.forest_num_leaves(f)):
            with pytest.raises(IndexError):
                add_caret(ref.forest_depths(f), i)

    @given(ref.forests())
    def test_terminal_pairs(self, f):
        assert terminal_pairs(ref.forest_depths(f)) == ref.terminal_pairs(f)

    @given(ref.forests())
    def test_remove_terminal_caret(self, f):
        flat = ref.forest_depths(f)
        for i in range(-1, ref.forest_num_leaves(f) + 1):
            try:
                expected = ref.forest_depths(ref.remove_terminal_caret(f, i))
            except ValueError:
                with pytest.raises(ValueError):
                    remove_terminal_caret(flat, i)
            else:
                assert remove_terminal_caret(flat, i) == expected

    @given(ref.forests(3), ref.forests(3))
    def test_union(self, f, g):
        n = min(len(f), len(g))
        f, g = f[:n], g[:n]
        assert forest_union(ref.forest_depths(f), ref.forest_depths(g)) == (
            ref.forest_depths(ref.forest_union(f, g)))

    @given(ref.forests(3), ref.forests(3), st.data())
    def test_regraft(self, small, other, data):
        n = min(len(small), len(other))
        small = small[:n]
        big = ref.forest_union(small, other[:n])
        leaves = ref.forest_num_leaves(small)
        k = data.draw(st.integers(1, leaves))
        outer = ref.random_forest(random.Random(data.draw(st.integers())),
                                  k, leaves - k)
        expected = ref.graft(outer, ref.forest_graft_pieces(small, big))
        assert regraft(ref.forest_depths(outer), ref.forest_depths(small),
                       ref.forest_depths(big)) == ref.forest_depths(expected)

    @given(ref.forests())
    def test_render(self, f):
        flat = ref.forest_depths(f)
        assert render_forest(flat) == ref.render_forest(f)
        assert [render_tree(t) for t in flat] == list(map(ref.render_tree, f))

    @given(ref.forests(), st.text(" ,*()[]T$", max_size=3), st.data())
    def test_parse(self, f, noise, data):
        # the reference's forest text, with noise inserted somewhere: both
        # parsers return equal forests or fail with the same message
        text = ref.render_forest(f)
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + noise + text[at:]
        try:
            expected = ref.forest_depths(ref.parse_forest(text))
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_forest(text)
            assert (str(got.value), got.value.pos) == (str(exc), exc.pos)
        else:
            assert parse_forest(text) == expected

    @given(ref.forests(3), ref.forests(3), st.text(" ,*()[]/xT$", max_size=3),
           st.data())
    def test_parse_tree_and_diagram(self, f, g, noise, data):
        # tree text and diagram text, with noise inserted, as in test_parse
        for text, parse, ref_parse in (
                (ref.render_tree(f[0]), parse_tree, ref.parse_tree),
                (ref.render_forest(f) + "/" + ref.render_forest(g),
                 lambda text: (parse_diagram(text).minus,
                               parse_diagram(text).plus),
                 ref.parse_diagram)):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + noise + text[at:]
            try:
                expected = ref_parse(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    parse(text)
                assert (str(got.value), got.value.pos) == (str(exc), exc.pos)
                continue
            if parse is parse_tree:
                assert parse(text) == ref.depths(expected)
            elif ref.forest_num_leaves(expected[0]) == ref.forest_num_leaves(
                    expected[1]):
                assert parse(text) == tuple(map(ref.forest_depths, expected))
            else:
                with pytest.raises(ValueError, match="equal leaf counts"):
                    parse(text)

    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
    def test_parse_depth_cap(self, depth):
        text = "[" + "(" * depth + "*" + ",*)" * depth + "]"
        try:
            expected = ref.forest_depths(ref.parse_forest(text))
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_forest(text)
            assert (str(got.value), got.value.pos) == (str(exc), exc.pos)
        else:
            assert parse_forest(text) == expected

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 12))
    def test_random_forest_draws_the_same_sequence(self, seed, trees, carets):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        f = random_forest(rng, trees, carets)
        assert f == ref.forest_depths(ref.random_forest(ref_rng, trees, carets))
        assert rng.getstate() == ref_rng.getstate()


def cancel_leftmost_first(f, g):
    """The nested forests f, g with their common terminal carets cancelled
    one at a time, the leftmost first, as diagrams.cancel_at would."""
    while common := ref.terminal_pairs(f) & ref.terminal_pairs(g):
        i = min(common)
        f = ref.remove_terminal_caret(f, i)
        g = ref.remove_terminal_caret(g, i)
    return f, g


def sparse_forests():
    """Up to 8 trees, most of them single leaves, so that tree boundaries
    fall between every kind of neighbouring heap numbers."""
    return st.lists(st.one_of(st.just(ref.LEAF), ref.trees(6)), min_size=1,
                    max_size=8).map(tuple)


class TestTreeBoundaries:
    """The heap-number passes never pair leaves across a tree boundary."""

    def test_consecutive_heap_numbers_across_a_boundary(self):
        # heap numbers 2, 3 | 4, 5, 3 | 1 | 2, 3: leaves 1 and 2 are 3, 4
        f = parse_forest("[(*,*),((*,*),*),*,(*,*)]")
        assert terminal_pairs(f) == {0, 2, 6}
        with pytest.raises(ValueError, match="^no terminal caret at leaf 1$"):
            remove_terminal_caret(f, 1)

    @given(sparse_forests())
    def test_surgery_at_every_boundary(self, f):
        flat = ref.forest_depths(f)
        n = ref.forest_num_leaves(f)
        assert terminal_pairs(flat) == ref.terminal_pairs(f)
        edges = {-1, n - 1, n}
        for start in leaf_starts(flat):
            edges |= {start - 1, start}
        for i in sorted(edges):
            try:
                expected = ref.forest_depths(ref.remove_terminal_caret(f, i))
            except ValueError:
                with pytest.raises(ValueError) as got:
                    remove_terminal_caret(flat, i)
                assert str(got.value) == f"no terminal caret at leaf {i}"
            else:
                assert remove_terminal_caret(flat, i) == expected

    @given(sparse_forests(), st.data())
    def test_cancel_common_carets(self, f, data):
        # g has f's leaf count, and common carets added on top may cancel
        n = ref.forest_num_leaves(f)
        k = data.draw(st.integers(1, min(n, 8)))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        g = ref.random_forest(rng, k, n - k)
        for _ in range(data.draw(st.integers(0, 4))):
            i = rng.randrange(ref.forest_num_leaves(f))
            f, g = ref.add_caret(f, i), ref.add_caret(g, i)
        flat = ref.forest_depths(f), ref.forest_depths(g)
        got = trees_mod.cancel_common_carets(*flat)
        assert got == tuple(map(ref.forest_depths, cancel_leftmost_first(f, g)))
        if got == flat:  # nothing cancelled: the inputs come back
            assert got[0] is flat[0] and got[1] is flat[1]


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
