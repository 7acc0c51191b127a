"""Lazy cube-complex exploration: neighbors, cubes, links, covers."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitmerge import complexes as complexes_mod
from splitmerge import steinfarley as steinfarley_mod
from splitmerge.characters import (Character, MorseSpec, chi, chi0, chi1,
                                   refined_compare, refined_height)
from splitmerge.complexes import (
    SimplicialComplex,
    ascending_link_model,
    descending_link_model,
    gm_linear,
)
from splitmerge.diagrams import (
    Diagram,
    apply_move,
    mirror_diagram,
    parse_diagram,
    random_vertex,
    reduce,
    render_diagram,
    split_foot,
)
from splitmerge.homology import cubical_chain_complex, subdivision_complex
from splitmerge.steinfarley import (
    Fragment,
    L_value,
    R_value,
    _label_directions,
    apply_labels,
    ascending_link,
    check_vertex,
    cofaces,
    cover_assign,
    descending_link,
    explore,
    link_of,
    monotone_cofaces,
    moves_in_band,
    neighbors,
    nerve_data,
    word_labels,
)
from splitmerge.trees import LEAF, forest_num_carets, left_vine, right_vine


def rngs():
    return st.integers(0, 2**32 - 1).map(random.Random)


def nerve(frag):
    """Nerve of the two-sided depth cover (a test-local shorthand)."""
    return nerve_data(frag)["complex"]


def vertex_key(d):
    """(feet, foot carets, chi0, chi1, L, R), read off the diagram itself."""
    return (d.feet, forest_num_carets(d.plus), chi0(d), chi1(d),
            L_value(d), R_value(d))


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


def filtered_monotone_cofaces(x, spec, down):
    """The build-then-filter route: list every banded coface word, then keep
    those all of whose moves strictly ascend (descend) on the neighbor."""
    want = -1 if down else 1
    direction = {}
    for kind, i in moves_in_band(x, spec.band):
        y = apply_move(x, (kind, i))
        direction["v" if kind == "s" else "e", i] = refined_compare(spec, y, x)
    return [w for w in cofaces(x, spec.band)
            if all(direction[lab] == want for lab in word_labels(w))]


class TestPrunedCofaces:
    coefficients = [-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-1, 3)]

    @given(rngs(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_filter_over_every_coface(self, rng, down):
        feet = rng.randint(2, 8)
        x = random_vertex(rng, feet, rng.randint(0, 10))
        char = Character(rng.choice(self.coefficients),
                         rng.choice(self.coefficients))
        band = (rng.randint(2, feet), feet + rng.randint(0, 4))
        spec = MorseSpec(char, rng.choice([1, -1]), band)
        words = filtered_monotone_cofaces(x, spec, down)
        assert monotone_cofaces(x, spec, down) == words
        link = ascending_link(x, spec, down)
        assert link == SimplicialComplex(
            [labels for labels in map(word_labels, words) if labels])

    @given(rngs())
    @settings(max_examples=300, deadline=None)
    def test_facet_routes_equal_generic_build(self, rng):
        # the link routes build from maximal words through the trusted
        # constructor; the generic constructor over every word must agree
        def generic(words):
            return SimplicialComplex(
                [labels for labels in map(word_labels, words) if labels])

        feet = rng.randint(2, 8)
        x = random_vertex(rng, feet, rng.randint(0, 10))
        char = Character(rng.choice(self.coefficients),
                         rng.choice(self.coefficients))
        sec = rng.choice([1, -1])
        band = (rng.choice([2, rng.randint(2, feet)]),
                feet + rng.choice([0, 1, rng.randint(2, 2 * feet)]))
        spec = MorseSpec(char, sec, band)
        built = [ascending_link_model(feet, char, sec, band),
                 descending_link_model(feet, char, sec, band)]
        for down in (False, True):
            link = ascending_link(x, spec, down)
            assert link == generic(monotone_cofaces(x, spec, down))
            built.append(link)
        assert descending_link(x, spec) == built[-1]
        for lk_band in (band, (1, band[1])):
            link = link_of(x, lk_band)
            assert link == generic(cofaces(x, lk_band))
            built.append(link)
        for k in built:
            assert complexes_mod._maximal(k.facets) == k.facets

    def test_mixed_word_is_pruned(self):
        # chi0 drops on splitting foot 1 and ties on foot 2, where the feet
        # secondary breaks the tie upwards: LL climbs one way, falls the other
        x = parse_diagram("[(*,*)]/[*,*]")
        spec = MorseSpec(Character(1, 0), 1, (2, 4))
        assert cofaces(x, spec.band) == ["II", "IL", "LI", "LL"]
        assert monotone_cofaces(x, spec) == ["II", "IL"]
        assert monotone_cofaces(x, spec, down=True) == ["II", "LI"]


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

    def test_caller_build_checks_every_vertex(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        with pytest.raises(ValueError, match="vertex is not reduced"):
            Fragment([x, parse_diagram("[((*,*),*)]/[(*,*),*]")], (2, 4))
        with pytest.raises(ValueError, match="outside band"):
            Fragment([x, parse_diagram("[*]/[*]")], (2, 4))

    def test_explored_vertices_are_not_checked_again(self, monkeypatch):
        calls = []
        original = steinfarley_mod.check_vertex

        def counted(d, band):
            calls.append(d)
            return original(d, band)

        monkeypatch.setattr(steinfarley_mod, "check_vertex", counted)
        seeds = [parse_diagram("[(*,*)]/[*,*]"),
                 parse_diagram("[((*,*),*)]/[*,*,*]")]
        frag = explore(seeds, (2, 5), max_vertices=300)
        assert calls == seeds and len(frag.vertices) == 300

    @given(rngs())
    @settings(max_examples=40, deadline=None)
    def test_shuffled_caller_build_has_explore_edges(self, rng):
        p = rng.randint(1, 3)
        band = (p, p + rng.randint(0, 4))
        seeds = [random_vertex(rng, rng.randint(*band), rng.randint(0, 5))
                 for _ in range(rng.randint(1, 3))]
        frag = explore(seeds, band, max_vertices=rng.choice([4, 25, 150]))
        order = list(range(len(frag.vertices)))
        rng.shuffle(order)
        built = Fragment([frag.vertices[i] for i in order], band)
        at = {old: new for new, old in enumerate(order)}
        assert len(built.edges) == len(frag.edges)
        assert set(built.edges) == {(at[i], at[j]) for i, j in frag.edges}


class TestSplitKey:
    """The completion loop applies a split only when its predicted key is
    some unexpanded vertex's; the prediction must be exact."""

    @given(rngs(), st.integers(1, 9), st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_predicted_key_is_the_split_vertex_key(self, rng, feet, extra):
        d = random_vertex(rng, feet, extra)
        for j in range(1, feet + 1):
            assert (steinfarley_mod._split_key(d, vertex_key(d), j)
                    == vertex_key(split_foot(d, j)))

    def test_every_kind_of_foot_is_covered(self):
        # (first foot, last foot, leaf foot) for every split of the sample
        # the hypothesis test draws from, f = 1 included
        rng, seen = random.Random(5), set()
        for feet in range(1, 10):
            for _ in range(30):
                d = random_vertex(rng, feet, rng.randint(0, 8))
                for j in range(1, feet + 1):
                    assert (steinfarley_mod._split_key(d, vertex_key(d), j)
                            == vertex_key(split_foot(d, j)))
                    seen.add((j == 1, j == feet, d.plus[j - 1] == LEAF))
        assert seen == set(itertools.product([False, True], repeat=3))


class TestCubes:
    def test_dim_one_cubes_are_edges(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 5), max_vertices=80)
        from_cubes = set()
        for base, word in frag.cubes:
            if word.count("L") == 1:
                top = frag.corners(base, word)[-1]
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


def random_fragment(rng, max_vertices):
    """A fragment on a random band, p = 1 included, maybe under a character
    floor, maybe cut short by a vertex budget or a radius."""
    p = rng.randint(1, 3)
    band = (p, p + rng.randint(0, 4))
    seeds = [random_vertex(rng, rng.randint(*band), rng.randint(0, 5))
             for _ in range(rng.randint(1, 3))]
    floor = None
    if rng.random() < 0.4:
        c = Character(rng.randint(-2, 3), rng.randint(-2, 3))
        floor = (c, min(chi(c, s) for s in seeds) - rng.randint(0, 2))
    return explore(seeds, band, chi_floor=floor,
                   max_vertices=rng.choice([4, 25, max_vertices, max_vertices]),
                   max_radius=rng.choice([None, None, 0, 2, 4]))


def staircase_reference(frag):
    """The staircase triangulation as first written: a cube's chains grow
    one split at a time in every insertion order, each split shifted right
    by the splits already taken to its left."""
    simplices = [[i] for i in range(len(frag.vertices))]
    for base, word in frag.cubes:
        positions = [i + 1 for i, ch in enumerate(word) if ch == "L"]

        def extend(vertex, taken, chain):
            if len(taken) == len(positions):
                simplices.append(chain)
                return
            for p in positions:
                if p not in taken:
                    shift = sum(1 for q in taken if q < p)
                    nxt = frag.step(vertex, ("s", p + shift))
                    extend(nxt, taken + (p,), chain + [nxt])
        extend(base, (), [base])
    return SimplicialComplex(simplices)


class TestCubeLayer:
    """Cubes, chain cells and the subdivision against routes that share no
    code with Fragment's face rule."""

    @staticmethod
    def brute_force_cubes(frag):
        # every I/L word at every vertex whose 2^k corners, reached by
        # split_foot, all lie in the fragment
        split = functools.lru_cache(maxsize=None)(split_foot)
        cubes = []
        for i, d in enumerate(frag.vertices):
            for word in map("".join, itertools.product("IL", repeat=d.feet)):
                corners = [d]
                for p in reversed([k + 1 for k, ch in enumerate(word)
                                   if ch == "L"]):
                    corners += [split(c, p) for c in corners]
                if "L" in word and all(c in frag.index for c in corners):
                    cubes.append((i, word))
        return sorted(cubes, key=lambda c: (c[1].count("L"), c[0], c[1]))

    @given(rngs())
    @settings(max_examples=40)
    def test_cubes_are_every_cube(self, rng):
        frag = random_fragment(rng, 120)
        assert frag.cubes == self.brute_force_cubes(frag)

    @pytest.mark.parametrize("seed, band, cap", [
        ("[((*,*),*)]/[*,*,*]", (3, 7), 200), ("[*]/[*]", (1, 7), 300)])
    def test_cubes_are_every_cube_with_3_cubes(self, seed, band, cap):
        frag = explore([parse_diagram(seed)], band, max_vertices=cap)
        assert any(word.count("L") == 3 for _, word in frag.cubes)
        assert frag.cubes == self.brute_force_cubes(frag)

    @given(rngs())
    @settings(max_examples=30)
    def test_chain_cells_are_fragment_cells(self, rng):
        frag = random_fragment(rng, 150)
        cells = cubical_chain_complex(frag).cells
        assert [cell for level in cells for cell in level] == frag.cells()
        assert all(word.count("L") == k for k, level in enumerate(cells)
                   for _, word in level)

    @given(rngs())
    @settings(max_examples=30)
    def test_subdivision_matches_insertion_order_chains(self, rng):
        frag = random_fragment(rng, 150)
        assert (subdivision_complex(frag).facets
                == staircase_reference(frag).facets)

    def test_empty_fragment_keeps_degree_zero(self):
        frag = explore([], (2, 4))
        assert cubical_chain_complex(frag).dims == [0]
        assert subdivision_complex(frag).is_empty()

    def test_top_corner_is_last(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 6), max_vertices=150)
        for base, word in frag.cells():
            top = frag.vertices[frag.corners(base, word)[-1]]
            assert top.feet == frag.feet_values[base] + word.count("L")
            assert top == apply_labels(frag.vertices[base],
                                       [("v", p) for p in range(1, len(word) + 1)
                                        if word[p - 1] == "L"])


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


COEFFICIENTS = [-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-1, 3)]


class TestNeighborTable:
    @given(rngs())
    @settings(max_examples=150, deadline=None)
    def test_directions_equal_refined_compare(self, rng):
        feet = rng.randint(2, 8)
        x = random_vertex(rng, feet, rng.randint(0, 10))
        spec = MorseSpec(Character(rng.choice(COEFFICIENTS),
                                   rng.choice(COEFFICIENTS)),
                         rng.choice([1, -1]),
                         (rng.randint(2, feet), feet + rng.randint(0, 4)))
        expected = {("v" if kind == "s" else "e", i):
                    refined_compare(spec, apply_move(x, (kind, i)), x)
                    for kind, i in moves_in_band(x, spec.band)}
        assert _label_directions(x, spec) == expected

    def test_one_table_for_both_links_and_every_spec(self, monkeypatch):
        applied = []
        for name in ("split_foot", "merge_feet"):
            original = getattr(steinfarley_mod, name)

            def counted(d, i, name=name, original=original):
                applied.append((name, d, i))
                return original(d, i)

            monkeypatch.setattr(steinfarley_mod, name, counted)
        x = random_vertex(random.Random(21), 5, 6)
        up = MorseSpec(Character(Fraction(1, 2), -1), 1, (3, 7))
        down = MorseSpec(Character(-2, 3), -1, (2, 8))
        asc = ascending_link(x, up)
        desc = descending_link(x, down)
        on_x = [(name, i) for name, d, i in applied if d is x]
        assert len(on_x) == len(set(on_x)) == 2 * x.feet - 1
        assert asc == ascending_link_model(5, up.character, 1, up.band)
        assert desc == descending_link_model(5, down.character, -1, down.band)

    def test_route_does_not_use_move_delta(self, monkeypatch):
        x = random_vertex(random.Random(22), 4, 5)
        spec = MorseSpec(Character(-1, 2), 1, (2, 6))
        model = ascending_link_model(4, spec.character, 1, spec.band)

        def refuse(n, label):
            raise AssertionError("the cofaces route called move_delta")

        monkeypatch.setattr(complexes_mod, "move_delta", refuse)
        assert ascending_link(x, spec) == model


class TestMirror:
    """Reflection swaps chi0 and chi1, so the links of mirror(x) under
    (b, a) are those of x under (a, b) with v_i -> v_(f+1-i) and
    e_i -> e_(f-i)."""

    @given(rngs(), st.sampled_from(COEFFICIENTS),
           st.sampled_from(COEFFICIENTS), st.sampled_from([1, -1]),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_links_reflect(self, rng, a, b, sec, below, above):
        f = rng.randint(2, 8)
        x = random_vertex(rng, f, rng.randint(0, 8))
        m = mirror_diagram(x)
        assert (chi0(m), chi1(m)) == (chi1(x), chi0(x))
        band = (max(2, f - below), f + above)

        def reflect(label):
            kind, i = label
            return kind, (f + 1 - i if kind == "v" else f - i)

        ab, ba = Character(a, b), Character(b, a)
        assert (ascending_link(m, MorseSpec(ba, sec, band))
                == ascending_link(x, MorseSpec(ab, sec, band)).relabel(reflect))
        assert (ascending_link_model(f, ba, sec, band)
                == ascending_link_model(f, ab, sec, band).relabel(reflect))


class TestIntegerFloor:
    @given(rngs(), st.sampled_from(COEFFICIENTS),
           st.sampled_from(COEFFICIENTS),
           st.fractions(min_value=-1, max_value=0, max_denominator=6))
    @settings(max_examples=150, deadline=None)
    def test_floor_matches_fraction_heights(self, rng, a, b, below):
        char = Character(a, b)
        x = random_vertex(rng, rng.randint(2, 5), rng.randint(0, 8))
        threshold = chi(char, x) + below
        band = (2, 6)
        frag = explore([x], band, chi_floor=(char, threshold), max_radius=1)
        expected = [x] + [y for y in neighbors(x, band)
                          if chi(char, y) >= threshold]
        assert frag.vertices == expected
