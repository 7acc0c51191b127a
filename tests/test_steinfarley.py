"""Lazy cube-complex exploration: neighbors, cubes, links, covers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from splitmerge.characters import Character, MorseSpec, chi, refined_height
from splitmerge.complexes import (
    SimplicialComplex,
    ascending_link_model,
    descending_link_model,
    gm_linear,
)
from splitmerge.diagrams import (
    Diagram,
    apply_move,
    parse_diagram,
    random_vertex,
    reduce,
    render_diagram,
)
from splitmerge.steinfarley import (
    Fragment,
    L_value,
    R_value,
    apply_labels,
    ascending_link,
    check_vertex,
    cofaces,
    cover_assign,
    descending_link,
    explore,
    link_of,
    moves_in_band,
    neighbors,
    nerve,
    nerve_data,
    word_labels,
)
from splitmerge.trees import LEAF, left_vine, right_vine


def rngs():
    return st.integers(0, 2**32 - 1).map(random.Random)


def word_count(n):
    # words over {I, L, V} where V occupies two feet
    a, b = 1, 2
    if n == 0:
        return 1
    for _ in range(n - 1):
        a, b = b, 2 * b + a
    return b


class TestNeighbors:
    def test_two_feet_narrow_band(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        got = sorted(render_diagram(y) for y in neighbors(x, (2, 3)))
        assert got == ["[((*,*),*)]/[*,*,*]", "[(*,(*,*))]/[*,*,*]"]

    def test_merge_triggers_cancellation(self):
        x = parse_diagram("[((*,*),*)]/[*,*,*]")
        ys = {render_diagram(y) for y in neighbors(x, (2, 3))}
        assert "[(*,*)]/[*,*]" in ys

    @given(rngs())
    @settings(max_examples=40)
    def test_symmetry(self, rng):
        x = reduce(random_vertex(rng, rng.randint(2, 5), 3))
        band = (2, 7)
        if not (band[0] <= x.feet <= band[1]):
            return
        for y in neighbors(x, band):
            assert x in neighbors(y, band)

    def test_band_gates_vertex(self):
        with pytest.raises(ValueError):
            check_vertex(parse_diagram("[*]/[*]"), (2, 3))
        with pytest.raises(ValueError):
            check_vertex(parse_diagram("[((*,*),*)]/[(*,*),*]"), (2, 3))


class TestCofaces:
    def test_two_feet_band_two_four(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        assert sorted(cofaces(x, (2, 4))) == ["II", "IL", "LI", "LL"]

    def test_three_feet_tight_band(self):
        x = reduce(random_vertex(random.Random(0), 3, 2))
        assert cofaces(x, (3, 3)) == ["III"]

    @pytest.mark.parametrize("feet", range(2, 7))
    def test_unbanded_count(self, feet):
        x = reduce(random_vertex(random.Random(feet), feet, 3))
        assert len(cofaces(x, (1, 2 * feet))) == word_count(feet)

    @given(rngs())
    @settings(max_examples=30)
    def test_words_respect_band(self, rng):
        x = reduce(random_vertex(rng, rng.randint(2, 5), 3))
        p, q = 2, x.feet + 1
        for w in cofaces(x, (p, q)):
            assert x.feet + w.count("L") <= q
            assert x.feet - w.count("V") >= p

    @given(rngs())
    @settings(max_examples=30)
    def test_labels_reach_opposite_corner(self, rng):
        x = reduce(random_vertex(rng, rng.randint(2, 4), 3))
        for w in cofaces(x, (1, 2 * x.feet)):
            labs = word_labels(w)
            y = apply_labels(x, labs)
            assert y.feet == x.feet + w.count("L") - w.count("V")
            if not labs:
                assert y == x


class TestLinks:
    @pytest.mark.parametrize("feet", range(2, 8))
    def test_unbanded_link_is_gm(self, feet):
        x = reduce(random_vertex(random.Random(feet), feet, 3))
        lk = link_of(x, (1, 2 * feet))
        assert lk == gm_linear(feet)
        assert lk.f_vector() == gm_linear(feet).f_vector()

    def test_narrow_band_keeps_single_splits_only(self):
        x = reduce(random_vertex(random.Random(9), 4, 3))
        lk = link_of(x, (4, 5))
        assert lk == SimplicialComplex([frozenset([("v", i)]) for i in range(1, 5)])

    @given(rngs())
    @settings(max_examples=40, deadline=None)
    def test_ascending_matches_model(self, rng):
        feet = rng.randint(2, 6)
        x = reduce(random_vertex(rng, feet, 3))
        a = Character(rng.choice([-2, -1, 1, 2]), rng.choice([-1, 0, 1, 3]))
        sec = rng.choice([1, -1])
        band = (rng.randint(2, feet), feet + rng.randint(0, 3))
        spec = MorseSpec(a, sec, band)
        assert ascending_link(x, spec) == ascending_link_model(
            feet, a, sec, band
        )

    @given(rngs())
    @settings(max_examples=20, deadline=None)
    def test_descending_matches_negated_model(self, rng):
        feet = rng.randint(2, 5)
        x = reduce(random_vertex(rng, feet, 3))
        spec = MorseSpec(Character(1, 1), 1, (2, feet + 2))
        assert descending_link(x, spec) == descending_link_model(
            feet, Character(1, 1), 1, (2, feet + 2)
        )

    def test_seven_feet_capped_model(self):
        x = reduce(random_vertex(random.Random(3), 7, 2))
        spec = MorseSpec(Character(-1, 0), -1, (2, 7))
        lk = ascending_link(x, spec)
        assert set(lk.vertices) == {("e", i) for i in range(2, 7)}


class TestExplore:
    def test_limit_one_keeps_seeds_only(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), max_vertices=1)
        assert [v.canon for v in frag.vertices] == [x.canon]
        assert frag.edges == []
        assert frag.provenance["truncated"]

    def test_deterministic(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        a = explore([x], (2, 5), max_vertices=80)
        b = explore([x], (2, 5), max_vertices=80)
        assert [v.canon for v in a.vertices] == [v.canon for v in b.vertices]
        assert a.edges == b.edges and list(a.cubes) == list(b.cubes)

    def test_vertex_list_grows_monotonically(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        small = explore([x], (2, 5), max_vertices=15)
        big = explore([x], (2, 5), max_vertices=60)
        assert [v.canon for v in big.vertices][:15] == [
            v.canon for v in small.vertices
        ]

    def test_radius_zero(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), max_radius=0)
        assert len(frag.vertices) == 1 and frag.edges == []
        assert frag.provenance["radius_completed"] == 0

    def test_band_respected(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), max_vertices=200)
        assert all(2 <= f <= 4 for f in frag.feet_values)

    def test_floor_respected(self):
        c = Character(1, 0)
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), chi_floor=(c, -2), max_vertices=200)
        assert all(v >= -2 for v in frag.chi_values[str(c)])
        assert any(v == -2 for v in frag.chi_values[str(c)])

    def test_floor_rejects_low_seed(self):
        c = Character(1, 1)
        with pytest.raises(ValueError):
            explore([parse_diagram("[(*,*)]/[*,*]")], (2, 4), chi_floor=(c, 0))

    def test_edges_are_irreflexive_and_unique(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), max_vertices=60)
        n = len(frag.vertices)
        seen = set()
        for i, j in frag.edges:
            assert 0 <= i < n and 0 <= j < n and i != j
            seen.add((min(i, j), max(i, j)))
        assert len(seen) == len(frag.edges)

    def test_edge_endpoints_differ_by_one_move(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), max_vertices=60)
        for i, j in frag.edges:
            assert abs(frag.feet_values[i] - frag.feet_values[j]) == 1


class TestOnePass:
    """explore hands its BFS moves to Fragment; the result must equal the
    fragment induced on the same vertices from scratch."""

    @given(rngs(), st.sampled_from([None, 0, 1, 3]))
    @settings(max_examples=60)
    def test_equals_induced_build(self, rng, radius):
        p = rng.randint(1, 3)
        band = (p, p + rng.randint(0, 4))
        seeds = [random_vertex(rng, rng.randint(*band), rng.randint(0, 5))
                 for _ in range(rng.randint(1, 3))]
        floor = None
        if rng.random() < 0.4:
            c = Character(rng.randint(-2, 3), rng.randint(-2, 3))
            floor = (c, min(chi(c, s) for s in seeds) - rng.randint(0, 2))
        frag = explore(seeds, band, chi_floor=floor,
                       characters=(Character(1, 1),),
                       max_vertices=rng.choice([1, 4, 25, 150, 400]),
                       max_radius=radius)
        induced = Fragment(frag.vertices, band, chi_floor=frag.chi_floor,
                           characters=frag.characters,
                           provenance=frag.provenance)
        assert frag.moves == induced.moves
        assert frag.edges == induced.edges
        assert frag.cubes == induced.cubes
        assert frag.to_json() == induced.to_json()
        assert frag.index == {d: i for i, d in enumerate(frag.vertices)}
        for i, d in enumerate(frag.vertices):
            targets = {move: frag.index.get(apply_move(d, move))
                       for move in moves_in_band(d, band)}
            assert frag.moves[i] == {move: j for move, j in targets.items()
                                     if j is not None}

    def test_duplicate_vertex_rejected(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        y = parse_diagram("[((*,*),*)]/[*,*,*]")
        with pytest.raises(ValueError, match="duplicate vertex"):
            Fragment([x, y, parse_diagram("[(*,*)]/[*,*]")], (2, 4))


class TestCubes:
    def test_dim_one_cubes_are_edges(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 5), max_vertices=80)
        from_cubes = set()
        for base, word in frag.cubes:
            if word.count("L") == 1:
                top = frag.top_corner(base, word)
                from_cubes.add((min(base, top), max(base, top)))
        assert from_cubes == {(min(i, j), max(i, j)) for i, j in frag.edges}

    def test_corner_count(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 6), max_vertices=150)
        for base, word in frag.cubes:
            k = word.count("L")
            assert len(set(frag.corners(base, word))) == 2**k

    def test_unique_height_extremes_per_cube(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 6), max_vertices=150)
        for c in (Character(1, 0), Character(1, 1), Character(-1, 2)):
            spec = MorseSpec(c, 1, (2, 6))
            for base, word in frag.cubes:
                hs = [
                    refined_height(spec, frag.vertices[i])
                    for i in frag.corners(base, word)
                ]
                assert hs.count(max(hs)) == 1
                assert hs.count(min(hs)) == 1


class TestLRInvariants:
    def test_identity_values(self):
        d = parse_diagram("[*]/[*]")
        assert L_value(d) == 0 and R_value(d) == 0

    def test_two_caret_values(self):
        d = parse_diagram("[((*,*),*)]/[*,*,*]")
        assert L_value(d) == 2 and R_value(d) == 1

    def test_components_without_edges_are_singletons(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), max_vertices=1)
        assert frag.components() == [[0]]

    def test_components_partition(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), max_vertices=50)
        comps = frag.components()
        flat = sorted(i for c in comps for i in c)
        assert flat == list(range(len(frag.vertices)))


class TestCover:
    def both_ends_seed(self):
        return Diagram(
            ((LEAF, (right_vine(5), LEAF)),),
            (left_vine(4), LEAF, (LEAF, LEAF)),
        )

    def test_both_ends_labeled(self):
        d = self.both_ends_seed()
        frag = explore([d], (2, 4), chi_floor=(Character(1, 1), 0), max_radius=0)
        assert cover_assign(frag.cells()[0], frag) == {("L", 1), ("R", 2)}

    def test_right_only(self):
        d = Diagram(
            (((LEAF, (LEAF, (LEAF, LEAF))), LEAF),),
            (LEAF, LEAF, right_vine(2)),
        )
        frag = explore([d], (2, 4), chi_floor=(Character(1, 2), 0), max_radius=0)
        assert cover_assign(frag.cells()[0], frag) == {("R", 1)}

    def test_every_cell_gets_a_label(self):
        d = self.both_ends_seed()
        frag = explore(
            [d], (2, 4), chi_floor=(Character(1, 1), 0), max_vertices=120
        )
        for cell in frag.cells():
            assert cover_assign(cell, frag)

    def test_regime_enforced(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), max_vertices=10)
        with pytest.raises(ValueError):
            cover_assign(frag.cells()[0], frag)


class TestNerve:
    def test_single_piece(self):
        d = Diagram(
            ((LEAF, ((LEAF, LEAF), (LEAF, LEAF))),),
            (left_vine(3), LEAF),
        )
        frag = explore([d], (2, 3), chi_floor=(Character(3, 1), 0), max_radius=0)
        n = nerve(frag)
        assert n.f_vector() == (1,)

    def test_bipartite_and_piecewise(self):
        d = Diagram(
            ((LEAF, (right_vine(5), LEAF)),),
            (left_vine(4), LEAF, (LEAF, LEAF)),
        )
        frag = explore(
            [d], (2, 4), chi_floor=(Character(1, 1), 0), max_vertices=150
        )
        data = nerve_data(frag)
        n = data["complex"]
        for s in n.k_simplices(1):
            sides = {side for (side, _, _) in s}
            assert sides == {"L", "R"}
        # every cell lands in one piece per carried label
        for cell, labels in zip(data["cells"], data["labels"]):
            assert set(labels) == cover_assign(cell, frag)
