"""Split-merge diagrams: parsing, reduction, groupoid structure."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from splitmerge.diagrams import (
    Diagram,
    apply_move,
    cancel_at,
    expand_at,
    generator,
    identity,
    inverse,
    invert_move,
    is_reduced,
    merge_feet,
    mirror_diagram,
    multiply,
    parse_diagram,
    random_diagram,
    random_expansion,
    random_group_element,
    random_vertex,
    reduce,
    reducible_positions,
    split_foot,
)
from splitmerge.steinfarley import moves_in_band
from splitmerge.trees import (LEAF, MAX_DEPTH, forest_num_leaves, left_vine,
                              parse_forest, parse_tree, random_forest,
                              right_vine, validate_forest)

CARET = parse_tree("(*,*)")


def rngs():
    return st.integers(0, 2**32 - 1).map(random.Random)


def poset_leq(d1: Diagram, d2: Diagram):
    """Witness forest C with d1 * [C / trivial] == d2, or None.

    Exists exactly when q = inverse(d1) * d2 reduces to a diagram whose plus
    side is trivial; the witness is then q's minus side. A test-local copy:
    the splitting order has no caller in the package.
    """
    if d1.heads != d2.heads:
        return None
    q = multiply(inverse(d1), d2)
    if all(t == LEAF for t in q.plus):
        return q.minus
    return None


def is_elementary(f) -> bool:
    """True when every tree of the forest is a leaf or a single caret."""
    return all(t == LEAF or t == CARET for t in f)


def split_diagram(n: int, i: int) -> Diagram:
    """Elementary diagram with n heads splitting foot i (1-based) into two."""
    minus = (LEAF,) * (i - 1) + (CARET,) + (LEAF,) * (n - i)
    return Diagram(minus, (LEAF,) * (n + 1))


def merge_diagram(n: int, i: int) -> Diagram:
    """Elementary diagram with n heads merging feet i, i+1 (1-based)."""
    plus = (LEAF,) * (i - 1) + (CARET,) + (LEAF,) * (n - 1 - i)
    return Diagram((LEAF,) * n, plus)


def diagram_strategy(max_extra=8):
    def build(seed):
        rng = random.Random(seed)
        heads = rng.randint(1, 3)
        feet = rng.randint(1, 4)
        return random_diagram(rng, heads, feet, rng.randint(0, max_extra))

    return st.integers(0, 2**32 - 1).map(build)


class TestParsing:
    def test_identity_string(self):
        d = parse_diagram("[*]/[*]")
        assert d.heads == 1 and d.feet == 1
        assert d == identity(1)

    def test_single_split(self):
        d = parse_diagram("[(*,*)]/[*,*]")
        assert d.heads == 1 and d.feet == 2
        assert forest_num_leaves(d.plus) == 2

    def test_leaf_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_diagram("[(*,*)]/[*]")

    @given(diagram_strategy())
    def test_roundtrip(self, d):
        assert parse_diagram(str(d)) == d

    def test_canonical_form_is_hash_key(self):
        a = parse_diagram("[(*,*)]/[*,*]")
        b = parse_diagram(" [ (*,*) ] / [ *,* ] ")
        assert a == b and hash(a) == hash(b) and a.canon == b.canon


class TestReduce:
    def test_single_step(self):
        d = parse_diagram("[((*,*),*)]/[(*,*),*]")
        assert str(reduce(d)) == "[(*,*)]/[*,*]"

    def test_split_cancels_merge(self):
        assert str(reduce(parse_diagram("[(*,*)]/[(*,*)]"))) == "[*]/[*]"

    @given(diagram_strategy())
    def test_idempotent(self, d):
        r = reduce(d)
        assert reduce(r) == r
        assert is_reduced(r)

    @given(diagram_strategy())
    def test_preserves_heads_and_feet(self, d):
        r = reduce(d)
        assert r.heads == d.heads and r.feet == d.feet

    @given(diagram_strategy(), rngs())
    def test_confluence(self, d, rng):
        # random cancellation order must land on the leftmost-first form
        cur = d
        while True:
            pos = reducible_positions(cur)
            if not pos:
                break
            cur = cancel_at(cur, rng.choice(sorted(pos)))
        assert cur == reduce(d)

    @given(diagram_strategy(), rngs())
    def test_expansion_reduces_back(self, d, rng):
        r = reduce(d)
        assert reduce(random_expansion(rng, r, 4)) == r

    @given(diagram_strategy(), rngs())
    def test_one_pass_equals_leftmost_first(self, d, rng):
        d = random_expansion(rng, d, rng.randint(0, 6))
        cur = d
        while positions := reducible_positions(cur):
            cur = cancel_at(cur, positions[0])
        assert reduce(d) == cur

    def test_deep_vines_cancel(self):
        # 2 * MAX_DEPTH common carets, cancelled one at a time
        k = MAX_DEPTH
        a = Diagram((left_vine(k),), (left_vine(k),))
        b = Diagram((right_vine(k),), (right_vine(k),))
        assert str(multiply(a, b)) == "[*]/[*]"

    def test_expand_at_inverts_cancel_at(self):
        d = parse_diagram("[(*,*)]/[*,*]")
        grown = expand_at(d, 1)
        assert not is_reduced(grown)
        assert reduce(grown) == d


def _frames() -> int:
    """Python frames on the stack, the caller's included."""
    frame, n = sys._getframe(1), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


class TestRecursionGuard:
    """No tree code recurses: diagrams whose trees nest MAX_DEPTH carets
    deep, and their products, pass through every operation with the
    recursion limit only 50 frames above the test's own depth."""

    def test_depth_cap_runs_in_loops(self):
        k = MAX_DEPTH
        left = "(" * k + "*" + ",*)" * k
        right = "(*," * k + "*" + ")" * k
        text = f"[{left}]/[{right}]"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frames() + 50)
        try:
            d = parse_diagram(text)
            assert str(d) == text
            assert Diagram(d.minus, d.plus) == d
            assert str(mirror_diagram(d)) == f"[{right}]/[{left}]"
            assert reduce(expand_at(d, k)) == d
            product = multiply(d, d)  # as in test_product_at_depth_cap
            assert Diagram(product.minus, product.plus) == product
            assert reduce(product) == product and is_reduced(product)
            assert multiply(product, inverse(d)) == d
            assert str(product).startswith("[")
            vines = (Diagram((left_vine(k),), (left_vine(k),)),
                     Diagram((right_vine(k),), (right_vine(k),)))
            assert str(multiply(*vines)) == "[*]/[*]"
        finally:
            sys.setrecursionlimit(limit)


class TestGroupoid:
    def test_inverse_swaps_sides(self):
        assert str(inverse(parse_diagram("[(*,*)]/[*,*]"))) == "[*,*]/[(*,*)]"

    @given(diagram_strategy())
    def test_inverse_involution(self, d):
        assert inverse(inverse(d)) == d

    @given(diagram_strategy())
    def test_inverse_laws(self, d):
        r = reduce(d)
        assert multiply(r, inverse(r)) == identity(r.heads)
        assert multiply(inverse(r), r) == identity(r.feet)

    def test_identity(self):
        assert str(identity(1)) == "[*]/[*]"
        assert str(identity(3)) == "[*,*,*]/[*,*,*]"
        with pytest.raises(ValueError):
            identity(0)

    @given(diagram_strategy())
    def test_identity_laws(self, d):
        r = reduce(d)
        assert multiply(identity(r.heads), r) == r
        assert multiply(r, identity(r.feet)) == r

    def test_inverse_pair_product(self):
        a = parse_diagram("[(*,*)]/[*,*]")
        b = parse_diagram("[*,*]/[(*,*)]")
        assert str(multiply(a, b)) == "[*]/[*]"

    def test_stacked_splits_product(self):
        a = parse_diagram("[(*,*)]/[*,*]")
        b = parse_diagram("[(*,*),*]/[*,*,*]")
        assert str(multiply(a, b)) == "[((*,*),*)]/[*,*,*]"

    def test_feet_heads_mismatch(self):
        with pytest.raises(ValueError):
            multiply(parse_diagram("[(*,*)]/[*,*]"), parse_diagram("[*]/[*]"))

    @given(rngs())
    @settings(max_examples=60)
    def test_associativity(self, rng):
        a = random_diagram(rng, rng.randint(1, 3), rng.randint(1, 3), 4)
        b = random_diagram(rng, a.feet, rng.randint(1, 3), 4)
        c = random_diagram(rng, b.feet, rng.randint(1, 3), 4)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @given(rngs())
    def test_product_bookkeeping(self, rng):
        a = random_diagram(rng, rng.randint(1, 3), rng.randint(1, 3), 4)
        b = random_diagram(rng, a.feet, rng.randint(1, 3), 4)
        p = multiply(a, b)
        assert p.heads == a.heads and p.feet == b.feet


class TestGenerators:
    def test_generator_zero_shape(self):
        g = generator(0)
        assert g.heads == 1 and g.feet == 1
        assert is_reduced(g)
        assert forest_num_leaves(g.minus) == 3

    def test_generator_inverse(self):
        g = generator(0)
        assert multiply(g, inverse(g)) == identity(1)

    def test_relation_x2x1(self):
        lhs = multiply(generator(2), generator(1))
        rhs = multiply(generator(1), generator(3))
        assert lhs == rhs

    @pytest.mark.parametrize(
        "i,j", [(i, j) for j in range(1, 7) for i in range(j)]
    )
    def test_presentation_relations(self, i, j):
        assert multiply(generator(j), generator(i)) == multiply(
            generator(i), generator(j + 1)
        )


class TestPoset:
    def test_reflexive(self):
        d = reduce(random_vertex(random.Random(3), 3, 4))
        w = poset_leq(d, d)
        assert w == (LEAF,) * d.feet

    def test_witness_example(self):
        lo = parse_diagram("[(*,*)]/[*,*]")
        hi = parse_diagram("[((*,*),*)]/[*,*,*]")
        w = poset_leq(lo, hi)
        assert w == parse_forest("[(*,*),*]")
        assert reduce(multiply(lo, Diagram(w, (LEAF,) * forest_num_leaves(w)))) == hi

    def test_fewer_feet_never_above(self):
        lo = parse_diagram("[(*,*)]/[*,*]")
        hi = parse_diagram("[((*,*),*)]/[*,*,*]")
        assert poset_leq(hi, lo) is None

    @given(rngs())
    @settings(max_examples=40)
    def test_partial_order_sample(self, rng):
        x = random_vertex(rng, rng.randint(1, 4), 3)
        y = x
        for _ in range(rng.randint(0, 3)):
            y = split_foot(y, rng.randint(1, y.feet))
        z = y
        for _ in range(rng.randint(0, 3)):
            z = split_foot(z, rng.randint(1, z.feet))
        assert poset_leq(x, y) is not None
        assert poset_leq(y, z) is not None
        assert poset_leq(x, z) is not None
        if x != y:
            assert poset_leq(y, x) is None

    def test_is_elementary(self):
        assert is_elementary(parse_forest("[*,(*,*),*]"))
        assert not is_elementary(parse_forest("[((*,*),*)]"))
        assert is_elementary((LEAF,) * 4)


class TestMoves:
    def test_split_then_merge_roundtrip(self):
        x = reduce(random_vertex(random.Random(11), 4, 5))
        y = split_foot(x, 2)
        assert y.feet == x.feet + 1
        assert merge_feet(y, 2) == x

    def test_apply_and_invert(self):
        x = reduce(random_vertex(random.Random(5), 3, 4))
        for mv in [("s", 1), ("s", x.feet), ("m", 1)]:
            y = apply_move(x, mv)
            back = apply_move(y, invert_move(mv))
            assert back == x

    @given(rngs())
    @settings(max_examples=150)
    def test_surgery_equals_multiplication(self, rng):
        x = random_vertex(rng, rng.randint(1, 6), rng.randint(0, 8))
        for i in range(1, x.feet + 1):
            assert split_foot(x, i) == multiply(x, split_diagram(x.feet, i))
        for i in range(1, x.feet):
            assert merge_feet(x, i) == multiply(x, merge_diagram(x.feet, i))

    @given(rngs())
    @settings(max_examples=150)
    def test_inverse_move_returns(self, rng):
        x = random_vertex(rng, rng.randint(1, 6), rng.randint(0, 8))
        for mv in moves_in_band(x, (1, x.feet + 1)):
            assert apply_move(apply_move(x, mv), invert_move(mv)) == x

    def test_merge_can_cancel(self):
        d = parse_diagram("[((*,*),*)]/[*,*,*]")
        assert str(merge_feet(d, 1)) == "[(*,*)]/[*,*]"

    @given(rngs())
    def test_mirror_is_involution(self, rng):
        d = reduce(random_diagram(rng, 2, 3, 5))
        assert mirror_diagram(mirror_diagram(d)) == d

    @given(rngs())
    def test_group_element_shape(self, rng):
        g = random_group_element(rng, 6)
        assert g.heads == 1 and g.feet == 1 and is_reduced(g)


class TestTrustedConstructor:
    """Surgery and composition build their results with Diagram._make,
    which skips validation; every result must pass the public one."""

    @given(rngs())
    @settings(max_examples=150)
    def test_results_pass_full_validation(self, rng):
        x = random_vertex(rng, rng.randint(1, 6), rng.randint(0, 8))
        results = [split_foot(x, i) for i in range(1, x.feet + 1)]
        results += [merge_feet(x, i) for i in range(1, x.feet)]
        d = random_diagram(rng, rng.randint(1, 3), rng.randint(1, 3),
                           rng.randint(0, 8))
        results += [expand_at(d, i)
                    for i in range(forest_num_leaves(d.minus))]
        e = random_expansion(rng, d, rng.randint(0, 3))
        results += [cancel_at(e, i) for i in reducible_positions(e)]
        g = random_group_element(rng, rng.randint(0, 8))
        h = random_group_element(rng, rng.randint(0, 8))
        results += [multiply(g, h), multiply(x, inverse(x)),
                    inverse(d), mirror_diagram(d)]
        for r in results:
            checked = Diagram(r.minus, r.plus)
            assert checked == r and hash(checked) == hash(r)
            assert checked.canon == r.canon

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 10))
    def test_random_diagram_draws_valid_forests(self, seed, heads, feet,
                                                extra):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        d = random_diagram(rng, heads, feet, extra)
        validate_forest(d.minus)
        validate_forest(d.plus)
        assert Diagram(d.minus, d.plus) == d
        assert (d.heads, d.feet) == (heads, feet)
        # the same draws as the two random_forest calls it makes
        leaves = max(heads, feet) + extra
        assert d.minus == random_forest(ref_rng, heads, leaves - heads)
        assert d.plus == random_forest(ref_rng, feet, leaves - feet)
        assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("args, name", [
        ((0, 1, 3), "heads"), ((1, 0, 3), "feet"), ((1, 1, -1), "extra_carets"),
    ])
    def test_random_diagram_rejects_bad_shapes(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            random_diagram(random.Random(0), *args)

    @pytest.mark.parametrize("minus, plus", [
        ((), (LEAF,)),
        ([LEAF], [LEAF]),
        (((),), (LEAF,)),
        (((1, 1, 1),), (LEAF, LEAF, LEAF)),
        (("*",), ("*",)),
        ((CARET,), (LEAF,)),
        (((1,),), (LEAF,)),
        (((2, 1, 2),), (LEAF, LEAF, LEAF)),
        (((True,),), (LEAF,)),
        (((-1,),), (LEAF,)),
        ((list(LEAF),), (LEAF,)),
        ((LEAF,), [LEAF]),
    ])
    def test_public_constructor_rejects_bad_forests(self, minus, plus):
        with pytest.raises(ValueError):
            Diagram(minus, plus)

    @pytest.mark.parametrize("text", [
        "[(*,*)]/[*]", "[]/[*]", "[(*)]/[*]", "[(*,*,*)]/[*,*,*]",
        "[*]/[*]x", "[*]",
    ])
    def test_parser_rejects_bad_forests(self, text):
        with pytest.raises(ValueError):
            parse_diagram(text)
