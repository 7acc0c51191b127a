"""Simplicial complexes, matching complexes, and closed-form link models."""

import itertools
import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from splitmerge import complexes, steinfarley
from splitmerge.characters import Character
from splitmerge.complexes import (
    SimplicialComplex,
    _disjoint_family_complex,
    _maximal,
    ascending_link_model,
    cone,
    descending_link_model,
    gm_linear,
    join,
    label_key,
    m_linear,
    move_delta,
    shift_labels,
)


def v(i):
    return ("v", i)


# Test-local matching complexes of arbitrary complexes: the package builds
# only the path models gm_linear and m_linear, through the same
# _disjoint_family_complex these feed.

def linear_graph(n: int) -> SimplicialComplex:
    """Path graph on vertices ("v", 1..n) as a 1-dimensional complex."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return SimplicialComplex([[("v", 1)]])
    return SimplicialComplex(
        [[("v", i), ("v", i + 1)] for i in range(1, n)])


def _bitmask_items(simplices, vertices) -> list:
    """(simplex, bitmask of its vertices' positions) for each simplex."""
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    return [(s, sum(bit[v] for v in s)) for s in simplices]


def general_matching_complex(k: SimplicialComplex) -> SimplicialComplex:
    """Complex of sets of pairwise-disjoint simplices of k; its vertices
    are the simplices of k themselves (as frozenset labels)."""
    return _disjoint_family_complex(
        _bitmask_items(k.simplices(), k.vertices))


def matching_complex(k: SimplicialComplex) -> SimplicialComplex:
    """Complex of matchings of the 1-skeleton of k."""
    return _disjoint_family_complex(
        _bitmask_items(k.k_simplices(1), k.vertices))


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in k.simplices())


def e(i):
    return ("e", i)


def fs(*labels):
    return frozenset(labels)


class TestSimplicialComplex:
    def test_facets_are_maximal(self):
        k = SimplicialComplex([fs(1, 2, 3), fs(1, 2), fs(4)])
        assert k.facets == frozenset({fs(1, 2, 3), fs(4)})

    def test_downward_closure(self):
        k = SimplicialComplex([fs(1, 2, 3)])
        assert fs(1, 2) in k and fs(3) in k
        assert fs(1, 4) not in k

    def test_empty(self):
        k = SimplicialComplex([])
        assert k.is_empty() and k.dim() == -1 and k.f_vector() == ()
        with pytest.raises(ValueError):
            SimplicialComplex([fs()])

    def test_f_vector_and_euler(self):
        k = SimplicialComplex([fs(1, 2, 3)])
        assert k.f_vector() == (3, 3, 1)
        assert euler_characteristic(k) == 1
        assert SimplicialComplex.boundary_sphere([1, 2, 3]).f_vector() == (3, 3)

    def test_components(self):
        k = SimplicialComplex([fs(1, 2), fs(3, 4), fs(5)])
        comps = {frozenset(c) for c in k.components()}
        assert comps == {fs(1, 2), fs(3, 4), fs(5)}
        assert not k.is_connected()
        assert SimplicialComplex([fs(1, 2), fs(2, 3)]).is_connected()

    def test_full_subcomplex(self):
        k = gm_linear(3)
        assert k.full_subcomplex(k.vertices) == k
        assert k.full_subcomplex(()).is_empty()
        tri = k.full_subcomplex({v(1), v(2), v(3)})
        assert tri == SimplicialComplex([fs(v(1), v(2), v(3))])

    def test_full_subcomplex_composes(self):
        k = gm_linear(4)
        keep1 = {v(1), v(2), v(3), e(3)}
        keep2 = {v(1), v(3), e(3)}
        assert k.full_subcomplex(keep1).full_subcomplex(keep2) == k.full_subcomplex(
            keep2
        )

    def test_star_link(self):
        k = m_linear(5)
        st_ = k.star(e(1))
        assert st_.is_cone_with_apex(e(1))
        # the link is the star's facets without the apex
        lk = SimplicialComplex([f - {e(1)} for f in st_.facets])
        assert lk == SimplicialComplex([fs(e(3)), fs(e(4))])

    def test_remove_open_star(self):
        k = SimplicialComplex([fs(1, 2, 3)])
        got = k.remove_open_star(fs(1, 2))
        assert fs(1, 2) not in got and fs(1, 2, 3) not in got
        assert fs(1) in got and fs(2, 3) in got

    def test_join_spheres(self):
        s0a = SimplicialComplex([fs("a1"), fs("a2")])
        s0b = SimplicialComplex([fs("b1"), fs("b2")])
        j = join(s0a, s0b)
        assert j.f_vector() == (4, 4)
        cyc = nx.Graph(tuple(s) for s in j.k_simplices(1))
        assert len(nx.cycle_basis(cyc)) == 1

    def test_cone_is_cone(self):
        k = m_linear(5)
        c = cone(k, "apex")
        assert c.is_cone_with_apex("apex")
        assert not k.is_cone_with_apex(e(1))

    def test_relabel(self):
        k = SimplicialComplex([fs(1, 2)])
        assert k.relabel({1: "x", 2: "y"}) == SimplicialComplex([fs("x", "y")])


class TestLinearGraph:
    def test_one_vertex(self):
        k = linear_graph(1)
        assert k.f_vector() == (1,)

    def test_three(self):
        k = linear_graph(3)
        assert set(k.vertices) == {v(1), v(2), v(3)}
        assert set(map(frozenset, k.k_simplices(1))) == {
            fs(v(1), v(2)),
            fs(v(2), v(3)),
        }

    def test_five(self):
        assert linear_graph(5).f_vector() == (5, 4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            linear_graph(0)


def brute_force_gm(base: SimplicialComplex) -> SimplicialComplex:
    """Independent oracle: enumerate pairwise-disjoint sets of simplices."""
    items = sorted(base.simplices(), key=lambda s: (len(s), sorted(map(str, s))))
    facets = []
    for r in range(1, len(items) + 1):
        layer = []
        for combo in itertools.combinations(items, r):
            union = set()
            if all(not (union & s) and not union.update(s) for s in combo):
                layer.append(frozenset(combo))
        if not layer:
            break
        facets.extend(layer)
    return SimplicialComplex(facets)


class TestMatchingComplexes:
    def test_gm_l2(self):
        k = gm_linear(2)
        assert set(k.vertices) == {v(1), v(2), e(1)}
        assert set(map(frozenset, k.k_simplices(1))) == {fs(v(1), v(2))}

    def test_gm_l3(self):
        k = gm_linear(3)
        assert k.f_vector() == (5, 5, 1)
        assert set(map(frozenset, k.k_simplices(1))) == {
            fs(v(1), v(2)),
            fs(v(2), v(3)),
            fs(v(1), v(3)),
            fs(v(1), e(2)),
            fs(v(3), e(1)),
        }
        assert k.k_simplices(2) == [fs(v(1), v(2), v(3))]

    def test_gm_point(self):
        assert general_matching_complex(SimplicialComplex([fs("p")])).f_vector() == (
            1,
        )

    def test_m_l2(self):
        assert m_linear(2).f_vector() == (1,)

    def test_m_l4(self):
        k = m_linear(4)
        assert set(k.vertices) == {e(1), e(2), e(3)}
        assert set(map(frozenset, k.k_simplices(1))) == {fs(e(1), e(3))}
        assert len(k.components()) == 2

    def test_m_l5(self):
        k = m_linear(5)
        assert set(map(frozenset, k.k_simplices(1))) == {
            fs(e(1), e(3)),
            fs(e(1), e(4)),
            fs(e(2), e(4)),
        }
        assert k.is_connected()

    @pytest.mark.parametrize("model", [m_linear, gm_linear])
    @pytest.mark.parametrize("n", [-1, -3, 2.5, "3", None, True, False])
    def test_path_models_reject_bad_n(self, model, n):
        with pytest.raises(ValueError, match="^n is .*, not an int >= 0$"):
            model(n)

    @pytest.mark.parametrize("model", [m_linear, gm_linear])
    def test_empty_path_model(self, model):
        assert model(0).is_empty()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_gm_agrees_with_brute_force(self, n):
        got = gm_linear(n)
        want = brute_force_gm(linear_graph(n))

        # brute-force labels are frozensets of base labels; translate
        def trans(simplex):
            out = set()
            for part in simplex:
                if len(part) == 1:
                    out.add(next(iter(part)))
                else:
                    i = min(i for (_, i) in part)
                    out.add(("e", i))
            return frozenset(out)

        assert {trans(f) for f in want.simplices()} == got.simplices()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_m_agrees_with_clique_oracle(self, n):
        # matchings of a path graph = independent sets of its line graph
        # = cliques of the complement of the line graph
        k = m_linear(n)
        g = nx.complement(nx.line_graph(nx.path_graph(n)))
        cliques = set()
        for c in nx.enumerate_all_cliques(g):
            cliques.add(frozenset(("e", min(a, b) + 1) for (a, b) in c))
        assert cliques == set(k.simplices())

    def test_matching_uses_one_skeleton(self):
        # triangle: every two edges share a vertex, so no matching of size 2
        k = matching_complex(SimplicialComplex([fs(1, 2, 3)]))
        assert k.f_vector() == (3,)

    def test_star_union_recursion(self):
        # st(last-but-one edge) union st(last edge) covers everything,
        # and the two stars meet in a shifted copy of the n-3 complex
        for n in range(5, 10):
            k = m_linear(n)
            s1 = k.star(e(n - 2))
            s2 = k.star(e(n - 1))
            assert set(s1.simplices()) | set(s2.simplices()) == set(k.simplices())
            inter = SimplicialComplex(
                [s for s in s1.simplices() if s in s2.simplices()]
            )
            assert inter == k.full_subcomplex(
                set(m_linear(n - 3).vertices)
            )


class TestShiftAndDeltas:
    def test_shift_labels(self):
        assert shift_labels(m_linear(4), 1) == SimplicialComplex(
            [fs(e(2), e(4)), fs(e(3))]
        )

    def test_move_delta_split(self):
        n = 5
        assert move_delta(n, v(1)) == (-1, 0)
        assert move_delta(n, v(3)) == (0, 0)
        assert move_delta(n, v(n)) == (0, -1)

    def test_move_delta_merge(self):
        n = 5
        assert move_delta(n, e(1)) == (1, 0)
        assert move_delta(n, e(2)) == (0, 0)
        assert move_delta(n, e(n - 1)) == (0, 1)


def sign(x) -> int:
    return (x > 0) - (x < 0)


# every primitive (a, b) with |a|, |b| <= 3, and the two Fraction
# characters of the links benchmark
SIGN_GRID = [Character(a, b) for a in range(-3, 4) for b in range(-3, 4)
             if math.gcd(a, b) == 1] + [
    Character(Fraction(1, 2), Fraction(-1, 3)),
    Character(Fraction(-1, 3), Fraction(1, 2))]


class TestAscendingModels:
    def test_small_band_example(self):
        # chi weights (1,0), ties broken upward, 3 feet, band [3,4]:
        # single splits fit under the cap, split pairs do not
        k = ascending_link_model(3, Character(1, 0), 1, (3, 4))
        assert set(k.vertices) == {v(2), v(3)}
        assert k.k_simplices(1) == []
        assert not k.is_empty()

    def test_negative_weight_gives_matching_complex(self):
        for n, b in [(7, 0), (7, 1), (10, 0)]:
            k = ascending_link_model(n, Character(-1, b), -1, (2, n))
            assert k == shift_labels(m_linear(n - 1), 1)

    def test_two_ended_connected_example(self):
        k = ascending_link_model(6, Character(1, 1), 1, (4, 7))
        assert set(k.vertices) == {e(1), e(5), v(2), v(3), v(4), v(5)}
        assert fs(e(1), e(5)) in k
        assert k.is_connected()

    def test_band_caps_split_pairs(self):
        # band top one above the feet count: single splits only
        k = ascending_link_model(4, Character(1, 1), 1, (2, 5))
        assert fs(v(2)) in k and fs(v(3)) in k
        assert fs(v(2), v(3)) not in k

    def test_band_violation(self):
        with pytest.raises(ValueError):
            ascending_link_model(5, Character(1, 0), 1, (2, 4))

    def test_descending_is_negated_ascending(self):
        a = descending_link_model(5, Character(1, 2), 1, (3, 6))
        b = ascending_link_model(5, Character(-1, -2), -1, (3, 6))
        assert a == b

    def test_list_band_is_tuple_band(self):
        # the band is read once and kept as (p, q), so every form of one
        # band hits the tuple band's memo entry
        memo = complexes._model_for
        for model in (ascending_link_model, descending_link_model):
            want = model(3, Character(1, 1), 1, (2, 5))
            misses = memo.cache_info().misses
            for band in ([2, 5], iter((2, 5))):
                assert model(3, Character(1, 1), 1, band) is want
            assert memo.cache_info().misses == misses

    @pytest.mark.parametrize("n, secondary, band", [
        (3, 0, (2, 5)), (3, 7, (2, 5)), (3, 1, (1, 5)), (3, 1, (2.0, 5)),
        (3.0, 1, (2, 5)), (3, 1, (2, 5, 7)), (6, 1, (2, 5)),
        (3, True, (2, 5)), (3, 1, None)])
    def test_invalid_spec(self, n, secondary, band):
        for model in (ascending_link_model, descending_link_model):
            with pytest.raises(ValueError):
                model(n, Character(1, 1), secondary, band)

    # the character cases of the test above; a character argument there
    # would rename its cases
    @pytest.mark.parametrize("character", ["x", None, (1, 1), [1, 1]])
    def test_invalid_character(self, character):
        for model in (ascending_link_model, descending_link_model):
            with pytest.raises(ValueError, match="character must be"):
                model(3, character, 1, (2, 5))

    def test_link_type_caches_are_bounded(self):
        for cache in (steinfarley._link_complex, complexes._model_complex,
                      complexes._model_for):
            assert cache.cache_info().maxsize is not None

    @pytest.mark.parametrize("n", range(2, 10))
    def test_models_depend_only_on_sign_class(self, n):
        # _link_model's docstring: chi enters only through (sign a, sign
        # b), and sign(a + b) at n = 2, where merge 1 moves both ends
        for model in (ascending_link_model, descending_link_model):
            for sec in (1, -1):
                classes: dict = {}
                for char in SIGN_GRID:
                    a, b = char.a, char.b
                    key = (sign(a), sign(b), sign(a + b) if n == 2 else 0)
                    classes.setdefault(key, []).append(
                        model(n, char, sec, (2, n + 3)))
                assert len(classes) == (12 if n == 2 else 8)
                for key, models in classes.items():
                    assert all(k == models[0] for k in models), key

    @given(
        st.integers(3, 8),
        st.sampled_from([-2, -1, 0, 1, 2]),
        st.sampled_from([-2, -1, 0, 1, 2]),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=60)
    def test_model_is_subcomplex_of_gm(self, n, a, b, sec):
        if a == 0 and b == 0:
            return
        k = ascending_link_model(n, Character(a, b), sec, (2, n + 2))
        gm = gm_linear(n)
        assert set(k.simplices()) <= set(gm.simplices())


# labels of every kind label_key orders, mixed within one complex
MIXED_LABELS = st.sampled_from([
    0, 1, 7, "a", "b", v(1), v(2), e(1), ("x", 1, 2),
    fs(v(1)), fs(v(1), e(2))])


@st.composite
def mixed_complexes(draw):
    facets = draw(st.lists(st.sets(MIXED_LABELS, min_size=1, max_size=4),
                           min_size=1, max_size=6))
    return SimplicialComplex(facets)


def canonical_key(simplex):
    return tuple(sorted(label_key(x) for x in simplex))


class TestSimplexOrder:
    """One order: every list of simplices follows SimplicialComplex.vertices."""

    @given(mixed_complexes())
    @settings(max_examples=150)
    def test_vertices_and_k_simplices_in_label_key_order(self, k):
        assert list(k.vertices) == sorted(k.vertices, key=label_key)
        for d in range(k.dim() + 1):
            want = sorted((s for s in k.simplices() if len(s) == d + 1),
                          key=canonical_key)
            assert k.k_simplices(d) == want

    @given(mixed_complexes())
    @settings(max_examples=150)
    def test_components_in_label_key_order(self, k):
        # oracle: graph search from each vertex in label_key order
        adjacent = {x: set() for x in k.vertices}
        for f in k.facets:
            for x in f:
                adjacent[x] |= f
        want, seen = [], set()
        for start in sorted(k.vertices, key=label_key):
            if start in seen:
                continue
            comp, stack = set(), [start]
            while stack:
                x = stack.pop()
                if x not in comp:
                    comp.add(x)
                    stack.extend(adjacent[x] - comp)
            seen |= comp
            want.append(sorted(comp, key=label_key))
        assert k.components() == want


def all_disjoint_families(items) -> SimplicialComplex:
    """Oracle: list every family of items with disjoint footprints."""
    simplices = []

    def grow(start, current, used):
        for k in range(start, len(items)):
            label, foot = items[k]
            if not used & foot:
                simplices.append(frozenset(current + [label]))
                grow(k + 1, current + [label], used | foot)

    grow(0, [], frozenset())
    return SimplicialComplex(simplices)


def maximal_capped_families(items, caps) -> frozenset:
    """Oracle: every subset of items, kept when its footprints are pairwise
    disjoint, it fits the caps and no further item can join it."""
    def fits(family):
        used = 0
        for _, foot in family:
            if used & foot:
                return False
            used |= foot
        kinds = [label[0] for label, _ in family]
        return all(kinds.count(kind) <= cap for kind, cap in caps.items())

    found = set()
    for size in range(1, len(items) + 1):
        for family in itertools.combinations(items, size):
            if fits(family) and not any(
                    fits(family + (item,)) for item in items
                    if item not in family):
                found.add(frozenset(label for label, _ in family))
    return frozenset(found)


def build_then_filter_model(n, character, secondary, band):
    """Oracle: the unpruned disjoint-family complex, then the band filter."""
    p, q = band
    items = []
    for label, foot in ([(v(i), fs(i)) for i in range(1, n + 1)]
                        + [(e(i), fs(i, i + 1)) for i in range(1, n)]):
        d0, d1 = move_delta(n, label)
        dchi = character.a * d0 + character.b * d1
        dfeet = 1 if label[0] == "v" else -1
        if dchi > 0 or (dchi == 0 and secondary * dfeet > 0):
            items.append((label, foot))
    admissible = []
    for s in all_disjoint_families(items).simplices():
        splits = sum(1 for lab in s if lab[0] == "v")
        if n + splits <= q and n - (len(s) - splits) >= p:
            admissible.append(s)
    return SimplicialComplex(admissible)


WEIGHTS = st.sampled_from([-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-1, 3)])


class TestPrunedFamilies:
    @given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=3),
                    max_size=9))
    @settings(max_examples=150)
    def test_maximal_families_match_all_families(self, feet):
        items = [(("i", k), frozenset(f)) for k, f in enumerate(feet)]
        masks = [(label, sum(1 << x for x in foot)) for label, foot in items]
        assert _disjoint_family_complex(masks) == all_disjoint_families(items)

    @given(st.data())
    @settings(max_examples=300)
    def test_capped_families_match_brute_force(self, data):
        kinds = "abc"[:data.draw(st.integers(2, 3))]
        # sparse footprints, so that many skipped items stay unblocked
        feet = data.draw(st.lists(st.sets(st.integers(0, 9), min_size=1,
                                          max_size=3).map(
            lambda bits: sum(1 << b for b in bits)), max_size=9))
        items = [((data.draw(st.sampled_from(kinds)), k), foot)
                 for k, foot in enumerate(feet)]
        caps = {kind: data.draw(st.integers(0, len(items) + 1))
                for kind in kinds}
        assert _disjoint_family_complex(items, caps).facets == \
            maximal_capped_families(items, caps)

    @given(st.integers(2, 9), st.integers(0, 4), st.integers(0, 4),
           WEIGHTS, WEIGHTS, st.sampled_from([1, -1]))
    @settings(max_examples=300)
    def test_model_equals_build_then_filter(self, n, below, above, a, b,
                                            sec):
        band = (max(2, n - below), n + above)
        char = Character(a, b)
        assert ascending_link_model(n, char, sec, band) == \
            build_then_filter_model(n, char, sec, band)
        assert descending_link_model(n, char, sec, band) == \
            build_then_filter_model(n, Character(-a, -b), -sec, band)


def parent_maximal(sets):
    """_maximal as it stood before the vertex index, kept verbatim."""
    by_size = sorted(set(sets), key=len, reverse=True)
    kept: list = []
    for s in by_size:
        if not any(s < t for t in kept):
            kept.append(s)
    return frozenset(kept)


class TestTrustedFacets:
    @given(st.lists(st.frozensets(st.integers(0, 7), max_size=5),
                    max_size=14).flatmap(lambda sets: st.permutations(
                        # nested subsets and duplicates ride along
                        sets + [frozenset(sorted(s)[::2]) for s in sets]
                        + sets[:3])))
    @settings(max_examples=300)
    def test_indexed_maximal_equals_quadratic(self, family):
        assert _maximal(family) == parent_maximal(family)

    @given(st.integers(2, 9), st.integers(0, 4), st.integers(0, 6),
           WEIGHTS, WEIGHTS, st.sampled_from([1, -1]))
    @settings(max_examples=200)
    def test_models_are_built_from_facets(self, n, below, above, a, b, sec):
        band = (max(2, n - below), n + above)
        char = Character(a, b)
        for k in (ascending_link_model(n, char, sec, band),
                  descending_link_model(n, char, sec, band),
                  gm_linear(n), m_linear(n)):
            assert _maximal(k.facets) == k.facets

    @given(mixed_complexes())
    @settings(max_examples=100)
    def test_matching_complexes_are_built_from_facets(self, k):
        for m in (matching_complex(k), general_matching_complex(k)):
            assert _maximal(m.facets) == m.facets
