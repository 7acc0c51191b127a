"""Lazy cube-complex exploration: neighbors, cubes, links, covers."""

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitmerge import complexes as complexes_mod
from splitmerge import steinfarley as steinfarley_mod
from splitmerge import trees as trees_mod
from splitmerge.characters import (Character, MorseSpec, chi, chi0, chi1,
                                   count_left, count_right, refined_compare,
                                   refined_height)
from splitmerge.complexes import (
    SimplicialComplex,
    ascending_link_model,
    connected_groups,
    descending_link_model,
    gm_linear,
)
from splitmerge.diagrams import (
    Diagram,
    apply_move,
    foot_surgery,
    invert_move,
    merge_feet,
    mirror_diagram,
    multiply,
    parse_diagram,
    random_vertex,
    reduce,
    split_foot,
)
from splitmerge.homology import cubical_chain_complex, subdivision_complex
from splitmerge.nervecycle import find_nerve_cycle
from splitmerge.steinfarley import (
    Fragment,
    L_value,
    R_value,
    _monotone_masks,
    apply_labels,
    ascending_link,
    check_vertex,
    cofaces,
    descending_link,
    explore,
    link_of,
    monotone_cofaces,
    moves_in_band,
    neighbors,
    nerve_data,
    word_labels,
)
from splitmerge.trees import LEAF


def rngs():
    return st.integers(0, 2**32 - 1).map(random.Random)


def nerve(frag):
    """Nerve of the two-sided depth cover (a test-local shorthand)."""
    return nerve_data(frag)["complex"]


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
        got = sorted(str(y) for y in neighbors(x, (2, 3)))
        assert got == ["[((*,*),*)]/[*,*,*]", "[(*,(*,*))]/[*,*,*]"]

    def test_merge_triggers_cancellation(self):
        x = parse_diagram("[((*,*),*)]/[*,*,*]")
        ys = {str(y) for y in neighbors(x, (2, 3))}
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

    @staticmethod
    def old_moves_in_band(x, band):
        # moves_in_band as first written: a fresh list on every call
        p, q = band
        f = x.feet
        moves = []
        if f + 1 <= q:
            moves.extend(("s", i) for i in range(1, f + 1))
        if f - 1 >= p:
            moves.extend(("m", i) for i in range(1, f))
        return moves

    def test_move_table_equals_the_old_list(self):
        rng = random.Random(3)
        for feet in range(1, 10):
            x = random_vertex(rng, feet, 2)
            for p in range(1, feet + 1):
                for q in range(feet, feet + 3):
                    old = self.old_moves_in_band(x, (p, q))
                    moves = moves_in_band(x, (p, q))
                    assert type(moves) is tuple and list(moves) == old
                    assert steinfarley_mod._band_moves(feet, p, q) == (
                        moves, tuple((m, invert_move(m)) for m in old))

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

    @pytest.mark.parametrize("band", [
        (2, 6.5), (True, 6), (2.0, 6), ("2", 6)])
    def test_bad_bands_are_rejected(self, band):
        # each was once read as a band: (2, 6.5) gave a 4-foot vertex a
        # 3-simplex, (True, 6) and (2.0, 6) were (1, 6) and (2, 6), and
        # ("2", 6) raised a bare TypeError
        x = reduce(random_vertex(random.Random(4), 4, 3))
        message = f"invalid band {re.escape(repr(band))}: want two ints"
        for build in (link_of, cofaces):
            with pytest.raises(ValueError, match=message):
                build(x, band)

    # each once raised AttributeError, where link_of names a bad band
    @pytest.mark.parametrize("spec", [None, (2, 4), "1,1", Character(1, 1)])
    def test_non_spec_is_rejected(self, spec):
        x = parse_diagram("[(*,*)]/[*,*]")
        message = f"invalid spec {re.escape(repr(spec))}: want a MorseSpec"
        for build in (ascending_link, descending_link, monotone_cofaces):
            with pytest.raises(ValueError, match=message):
                build(x, spec)

    @pytest.mark.parametrize("vertex", [None, "[(*,*)]/[*,*]", 7, (LEAF,)])
    def test_non_diagram_is_rejected(self, vertex):
        spec = MorseSpec(Character(1, 1), 1, (2, 4))
        message = f"invalid vertex {re.escape(repr(vertex))}: want a Diagram"
        for build in (ascending_link, descending_link, monotone_cofaces):
            with pytest.raises(ValueError, match=message):
                build(vertex, spec)

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

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_radius": -1}, "max_radius is -1, not None or int >= 0"),
        ({"max_radius": 1.5}, "max_radius is 1.5, not None or int >= 0"),
        ({"max_radius": "2"}, "max_radius is '2', not None or int >= 0"),
        ({"max_vertices": -1}, "max_vertices is -1, not an int >= 0"),
        ({"max_vertices": 2.5}, "max_vertices is 2.5, not an int >= 0"),
        ({"max_vertices": None}, "max_vertices is None, not an int >= 0"),
        ({"max_vertices": True}, "max_vertices is True, not an int >= 0"),
        ({"max_radius": True}, "max_radius is True, not None or int >= 0"),
        ({"max_radius": False}, "max_radius is False, not None or int >= 0"),
    ])
    def test_bad_limits_are_rejected(self, kwargs, message):
        x = parse_diagram("[(*,*)]/[*,*]")
        with pytest.raises(ValueError, match=message):
            explore([x], (2, 4), **kwargs)

    @pytest.mark.parametrize("kwargs, bad", [
        ({"chi_floor": (1, 0)}, "1"),
        ({"chi_floor": ("1,0", 0)}, "'1,0'"),
        ({"characters": ("1,0",)}, "'1,0'"),
        ({"characters": (Character(1, 0), (1, 0))}, r"\(1, 0\)"),
    ])
    def test_non_characters_are_rejected(self, kwargs, bad):
        # by explore, before it steps, and by a caller-built Fragment
        x = parse_diagram("[(*,*)]/[*,*]")
        message = "character must be a Character, got " + bad
        with pytest.raises(ValueError, match=message):
            explore([x], (2, 3), max_vertices=20, **kwargs)
        with pytest.raises(ValueError, match=message):
            Fragment([x], (2, 3), **kwargs)

    @pytest.mark.parametrize("band", [
        (2, 5.5), (2.7, 5), (2.0, 5), (True, 5), (2, True), ("2", 5), (5, 2),
        (0, 3), (2,), (2, 3, 4), None, 7])
    def test_bad_bands_are_rejected(self, band):
        # by explore and by a caller-built Fragment, with or without vertices
        x = parse_diagram("[(*,*)]/[*,*]")
        message = f"invalid band {re.escape(repr(band))}: want two ints"
        for build in (explore, Fragment):
            for vertices in ([x], []):
                with pytest.raises(ValueError, match=message):
                    build(vertices, band)

    def test_band_of_two_ints_in_any_sequence(self):
        frag = explore([parse_diagram("[(*,*)]/[*,*]")], [2, 4],
                       max_vertices=10)
        assert frag.band == (2, 4) and frag.provenance["band"] == [2, 4]

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

    @pytest.mark.parametrize("budget", [7, 30, 120, 400])
    @pytest.mark.parametrize("floor", [None, (Character(1, 1), -4)])
    def test_mixed_parity_seeds_with_truncating_budget(self, monkeypatch,
                                                        budget, floor):
        # seeds of 2 and 3 feet put both parities on the last, unexpanded
        # levels, so completion itself must find edges among them
        done = []

        class Spy(Fragment):
            __slots__ = ()

            def __init__(self, *args, _explored=None, **kwargs):
                done.append(_explored[3])
                super().__init__(*args, _explored=_explored, **kwargs)

        monkeypatch.setattr(steinfarley_mod, "Fragment", Spy)
        seeds = [parse_diagram("[(*,*)]/[*,*]"),
                 parse_diagram("[((*,*),*)]/[*,*,*]"),
                 parse_diagram("[(*,(*,(*,*)))]/[(*,*),*,*]")]
        band = (2, 5)
        frag = explore(seeds, band, chi_floor=floor, max_vertices=budget)
        assert frag.provenance["truncated"] and len(frag.vertices) == budget
        assert any(i >= done[0] and j >= done[0] for i, j in frag.edges)
        induced = Fragment(frag.vertices, band, chi_floor=frag.chi_floor,
                           provenance=frag.provenance)
        assert frag.moves == induced.moves and frag.edges == induced.edges
        assert frag.to_json() == induced.to_json()
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


def elementary(f, move):
    """The f-head diagram that multiply composes with for a split at foot i
    (one caret under head i) or a merge of feet i, i + 1 (one foot caret)."""
    kind, i = move
    carets = (LEAF,) * (i - 1) + ((1, 1),) + (LEAF,) * (f - i - (kind == "m"))
    if kind == "s":
        return Diagram(carets, (LEAF,) * (f + 1))
    return Diagram((LEAF,) * f, carets)


def surgery_kinds(d, move):
    """(kind, first, last, foot or feet leaves, heads change) of a move."""
    kind, i = move
    last = i == d.feet - (kind == "m")
    leaves = all(t == LEAF for t in d.plus[i - 1:i + (kind == "m")])
    return kind, i == 1, last, leaves, apply_move(d, move).minus != d.minus


class TestFootSurgery:
    """foot_surgery is the whole of split_foot and merge_feet, and of the
    tables explore and Fragment step through."""

    def check(self, d, move):
        head, j, stepped, unstepped = foot_surgery(d.plus, move)
        minus = head and head(d.minus, j)
        y = Diagram._make(d.minus if minus is None else minus,
                          unstepped if minus is None else stepped)
        # the composite with the elementary diagram is the independent
        # route, the surgery split_foot and merge_feet once ran inline
        assert y == multiply(d, elementary(d.feet, move))
        assert y == (split_foot if move[0] == "s" else merge_feet)(d, move[1])
        assert y.minus != d.minus if minus is not None else y.minus is d.minus
        if move[0] == "s":  # a split's heads step whenever they are named
            assert (head is None) == (j is None) == (stepped is None)
        forests = steinfarley_mod._Forests()
        m, p = forests.step((forests.id(d.minus), forests.id(d.plus)), move)
        assert (forests.forests[m], forests.forests[p]) == (y.minus, y.plus)

    @given(rngs(), st.integers(1, 9), st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_equals_split_foot_and_merge_feet(self, rng, feet, extra):
        d = random_vertex(rng, feet, extra)
        for move in moves_in_band(d, (max(1, feet - 1), feet + 1)):
            self.check(d, move)

    def test_every_kind_of_foot_is_covered(self):
        # splits at first, last, leaf and caret feet, f = 1 included, and
        # merges at first and last pairs that cancel a head caret, two leaf
        # feet that cannot, and feet with carets
        rng, seen = random.Random(5), set()
        for feet in range(1, 10):
            for _ in range(30):
                d = random_vertex(rng, feet, rng.randint(0, 8))
                for move in moves_in_band(d, (max(1, feet - 1), feet + 1)):
                    self.check(d, move)
                    seen.add(surgery_kinds(d, move))
        splits = {("s", a, b, leaf, leaf) for a, b, leaf in
                  itertools.product([False, True], repeat=3)}
        # only leaf feet can cancel, and two leaf feet that are all the feet
        # of a reduced vertex hang from its one head caret, so they cancel
        merges = {("m", a, b, leaf, cut) for a, b, leaf, cut in
                  itertools.product([False, True], repeat=4)
                  if (leaf or not cut) and (a, b, leaf, cut) != (1, 1, 1, 0)}
        assert seen == splits | merges

    def test_surgery_runs_once_per_forest_and_move(self, monkeypatch):
        # feet surgery once per (feet forest, move), and each head step
        # once per (head forest, step, leaf), however often explore and its
        # Fragment's completion step that way
        calls, steps, counted_steps = [], [], {}
        original = steinfarley_mod.foot_surgery

        def counting_step(head):
            def step(minus, j):
                steps.append((minus, head, j))
                return head(minus, j)
            return step

        def counted(plus, move):
            calls.append((plus, move))
            head, *rest = original(plus, move)
            if head is not None:
                head = counted_steps.setdefault(head, counting_step(head))
            return (head, *rest)

        monkeypatch.setattr(steinfarley_mod, "foot_surgery", counted)
        frag = explore([parse_diagram("[(*,*)]/[*,*]")], (2, 5),
                       max_vertices=2000)
        moved = sum(map(len, frag.moves))
        assert len(set(calls)) == len(calls) < moved / 4
        assert len(set(steps)) == len(steps) < moved / 4
        induced = Fragment(frag.vertices, (2, 5), provenance=frag.provenance)
        assert frag.to_json() == induced.to_json()

    def test_bad_moves_are_rejected(self):
        plus = parse_diagram("[((*,*),*)]/[*,*,*]").plus
        for move, message in [(("s", 0), r"foot 0 out of range 1\.\.3"),
                              (("s", 4), r"foot 4 out of range 1\.\.3"),
                              (("m", 3), r"foot pair \(3,4\) out of range"),
                              (("x", 1), "unknown move kind 'x'")]:
            with pytest.raises(ValueError, match=message):
                foot_surgery(plus, move)

    @pytest.mark.parametrize("i", [True, False, 1.0, 2.5, "1", None])
    def test_foot_that_is_not_an_int_is_rejected(self, i):
        # True would split foot 1, and 1.0 fail on a slice
        d = parse_diagram("[((*,*),*)]/[*,*,*]")
        message = re.escape(f"foot {i!r} is not an int")
        for call in (lambda: foot_surgery(d.plus, ("s", i)),
                     lambda: apply_move(d, ("m", i)),
                     lambda: split_foot(d, i), lambda: merge_feet(d, i)):
            with pytest.raises(ValueError, match=message):
                call()


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

    def test_faces_split_the_corners(self):
        # across each axis, in axis order, the back face holds the corners
        # without split p and the front face those with it
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 6), max_vertices=150)
        for i, f in enumerate(frag.feet_values):
            assert frag.faces(i, "I" * f) == []
        for base, word in frag.cubes:
            faces = frag.faces(base, word)
            axes = [p + 1 for p, ch in enumerate(word) if ch == "L"]
            assert len(faces) == len(axes)
            corners = frag.corners(base, word)
            for p, (back, front) in zip(axes, faces):
                assert back[0] == base
                assert front[0] == frag.step(base, ("s", p))
                assert back[1].count("L") == front[1].count("L") == \
                    len(axes) - 1
                assert sorted(frag.corners(*back) + frag.corners(*front)) \
                    == sorted(corners)

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

    @pytest.mark.parametrize("seed, band, cap", [
        ("[(*,*)]/[*,*]", (2, 3), 200), ("[((*,*),*)]/[*,*,*]", (3, 4), 300),
        ("[(*,*)]/[*,*]", (2, 2), 50), ("[(*,*)]/[*,*]", (2, 6), 3)])
    def test_cubes_are_every_cube_without_2_cubes(self, seed, band, cap):
        # bands one foot wide, a band with no move, and a budget too small
        # for a square: every cube is an edge, or there is none
        frag = explore([parse_diagram(seed)], band, max_vertices=cap)
        assert all(word.count("L") == 1 for _, word in frag.cubes)
        assert len(frag.cubes) == len(frag.edges)
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


# carets at both ends of the feet, under a head tree with deep inner carets
BOTH_ENDS_SEED = "[(*,((*,(*,(*,(*,(*,*))))),*))]/[((((*,*),*),*),*),*,(*,*)]"


class TestCover:
    def both_ends_seed(self):
        return parse_diagram(BOTH_ENDS_SEED)

    def test_both_ends_labeled(self):
        d = self.both_ends_seed()
        frag = explore([d], (2, 4), chi_floor=(Character(1, 1), 0), max_radius=0)
        assert nerve_data(frag)["labels"] == [(("L", 1), ("R", 2))]

    def test_right_only(self):
        d = parse_diagram("[((*,(*,(*,*))),*)]/[*,*,(*,(*,*))]")
        frag = explore([d], (2, 4), chi_floor=(Character(1, 2), 0), max_radius=0)
        assert nerve_data(frag)["labels"] == [(("R", 1),)]

    def test_every_cell_gets_a_label(self):
        d = self.both_ends_seed()
        frag = explore(
            [d], (2, 4), chi_floor=(Character(1, 1), 0), max_vertices=120
        )
        labels = nerve_data(frag)["labels"]
        assert len(labels) == len(frag.cells()) and all(labels)

    def test_regime_enforced(self):
        x = parse_diagram("[(*,*)]/[*,*]")
        frag = explore([x], (2, 4), max_vertices=10)
        with pytest.raises(ValueError):
            nerve_data(frag)


class TestNerve:
    def test_single_piece(self):
        d = parse_diagram("[(*,((*,*),(*,*)))]/[(((*,*),*),*),*]")
        frag = explore([d], (2, 3), chi_floor=(Character(3, 1), 0), max_radius=0)
        n = nerve(frag)
        assert n.f_vector() == (1,)

    def test_bipartite_and_piecewise(self):
        d = parse_diagram(BOTH_ENDS_SEED)
        frag = explore(
            [d], (2, 4), chi_floor=(Character(1, 1), 0), max_vertices=150
        )
        data = nerve_data(frag)
        n = data["complex"]
        for s in n.k_simplices(1):
            sides = {side for (side, _, _) in s}
            assert sides == {"L", "R"}
        # every cell lands in one piece per carried label
        for ci, labels in enumerate(data["labels"]):
            assert [(side, value) for side, value, _ in
                    data["cell_nerve_vertices"][ci]] == list(labels)
            for lab in labels:
                assert sum(ci in comp
                           for comp in data["piece_components"][lab]) == 1


def reference_nerve_data(frag):
    """nerve_data as first written, each cell's labels read off its top
    corner's diagram and a piece's components found by joining every
    (first cell at a vertex, cell) pair; nerve_data now reads the labels
    from per-vertex labels and joins the corner vertices themselves."""
    cells = frag.cells()
    floor = frag.chi_floor
    if cells and (floor is None or floor[0].a <= 0 or floor[0].b <= 0
                  or floor[1] < 0 or frag.band[0] < 2):
        raise ValueError(
            "cover labels need a fragment explored with band start >= 2 and "
            "a nonnegative floor for a character with a > 0 and b > 0")
    corner_lists = [frag.corners(base, word) for base, word in cells]
    labels = []
    for corners in corner_lists:
        x = frag.vertices[corners[-1]]
        labels.append(tuple((side, value(x)) for side, value, carets in (
            ("L", L_value, count_left), ("R", R_value, count_right))
            if carets(x.plus) > 0))
        if not labels[-1]:
            raise ValueError(f"cell at {x} received no cover label")

    by_corner_side = {}
    for ci, labs in enumerate(labels):
        for side, value in labs:
            for v in corner_lists[ci]:
                prev = by_corner_side.setdefault((v, side), value)
                if prev != value:
                    raise AssertionError(
                        f"cover pieces ({side},{prev}) and ({side},{value}) "
                        f"share vertex {frag.vertices[v]}")

    piece_cells = {}
    for ci, labs in enumerate(labels):
        for lab in labs:
            piece_cells.setdefault(lab, []).append(ci)

    cell_component = {}
    piece_components = {}
    for lab, members in sorted(piece_cells.items()):
        touch = {}
        pairs = ((touch.setdefault(v, ci), ci)
                 for ci in members for v in corner_lists[ci])
        ordered = connected_groups(members, pairs)
        piece_components[lab] = ordered
        for k, comp in enumerate(ordered):
            for ci in comp:
                cell_component[(lab, ci)] = k

    cell_nerve_vertices = [
        tuple((side, value, cell_component[((side, value), ci)])
              for side, value in labs)
        for ci, labs in enumerate(labels)]
    complex_ = SimplicialComplex(cell_nerve_vertices)
    for edge in complex_.k_simplices(1):
        sides = {side for side, _, _ in edge}
        if sides != {"L", "R"}:
            raise AssertionError(f"nerve edge {edge} is not bipartite")
    return {
        "cells": cells,
        "labels": labels,
        "piece_components": piece_components,
        "cell_nerve_vertices": cell_nerve_vertices,
        "complex": complex_,
    }


class TestCoverLabelsPerVertex:
    @pytest.mark.parametrize("a, b", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("floor", [0, 1])
    @pytest.mark.parametrize("cap", [1, 40, 400, 1500])
    def test_equals_per_cell_labels(self, a, b, floor, cap):
        char = Character(a, b)
        cert = find_nerve_cycle(char)
        frag = explore([parse_diagram(w) for w in cert.witnesses], cert.band,
                       chi_floor=(char, floor), max_vertices=cap)
        data, want = nerve_data(frag), reference_nerve_data(frag)
        assert data.keys() == want.keys()
        for key in ("cells", "labels", "piece_components",
                    "cell_nerve_vertices"):
            assert data[key] == want[key]
        assert data["complex"] == want["complex"]
        assert data["complex"].f_vector() == want["complex"].f_vector()

    @pytest.mark.parametrize("a, b", [(1, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("floor", [0, 2])
    @pytest.mark.parametrize("cap", [30, 1000])
    def test_components_equal_the_pair_join(self, a, b, floor, cap):
        # the pieces of these fragments have up to two components each, so
        # the lists must come out equal, order included
        char = Character(a, b)
        cert = find_nerve_cycle(char)
        frag = explore([parse_diagram(w) for w in cert.witnesses], cert.band,
                       chi_floor=(char, floor), max_vertices=cap)
        data, want = nerve_data(frag), reference_nerve_data(frag)
        assert data["piece_components"] == want["piece_components"]
        assert data["cell_nerve_vertices"] == want["cell_nerve_vertices"]

    def test_both_ends_seed_equals_per_cell_labels(self):
        frag = explore([parse_diagram(BOTH_ENDS_SEED)], (2, 4),
                       chi_floor=(Character(1, 1), 0), max_vertices=150)
        data, want = nerve_data(frag), reference_nerve_data(frag)
        assert data["labels"] == want["labels"]
        assert data["complex"] == want["complex"]

    @pytest.mark.parametrize("band, floor", [
        ((2, 4), None), ((1, 4), (Character(1, 1), 0)),
        ((2, 4), (Character(1, 0), 0)), ((2, 4), (Character(1, 1), -1))])
    def test_same_regime_error(self, band, floor):
        x = parse_diagram("[((*,*),*)]/[*,*,*]")
        frag = Fragment([x], band, chi_floor=floor)
        errors = []
        for route in (nerve_data, reference_nerve_data):
            with pytest.raises(ValueError) as info:
                route(frag)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "cover labels need" in errors[0]

    def test_same_error_for_a_cell_without_label(self):
        # a caller-built fragment need not respect its floor: this vertex
        # has no caret at either end of its feet
        frag = Fragment([parse_diagram("[(*,*)]/[*,*]")], (2, 4),
                        chi_floor=(Character(1, 1), 0))
        errors = []
        for route in (nerve_data, reference_nerve_data):
            with pytest.raises(ValueError) as info:
                route(frag)
            errors.append(str(info.value))
        assert errors == ["cell at [(*,*)]/[*,*] received no cover label"] * 2


# a seed whose 2500-vertex fragment on band (2, 5) holds 1420 distinct
# forests, more than the forest render cache keeps, but 276 distinct trees
LARGE_SEED = "[((*,(*,*)),((*,*),(*,(*,*))))]/[((*,*),*),(*,(*,*)),*,*]"


class TestRenderCaches:
    def test_each_distinct_tree_rendered_once(self):
        frag = explore([parse_diagram(LARGE_SEED)], (2, 5),
                       max_vertices=2500)
        forests = {f for d in frag.vertices for f in (d.minus, d.plus)}
        distinct = {t for f in forests for t in f}
        assert len(frag.vertices) == 2500 and len(forests) > 1024
        trees_mod._render_forest.cache_clear()
        trees_mod._render_tree.cache_clear()
        payload = frag.to_json()
        # each miss of the tree cache is one render_tree call
        assert trees_mod._render_tree.cache_info().misses == len(distinct)
        text = {t: trees_mod.render_tree(t) for t in distinct}
        assert [v["diagram"] for v in payload["vertices"]] == [
            "/".join("[" + ",".join(text[t] for t in f) + "]"
                     for f in (d.minus, d.plus)) for d in frag.vertices]


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
        for down, want in ((False, 1), (True, -1)):
            masks = {"s": 0, "m": 0}
            for kind, i in moves_in_band(x, spec.band):
                if refined_compare(spec, apply_move(x, (kind, i)), x) == want:
                    masks[kind] |= 1 << i
            assert _monotone_masks(x, spec, down) == (masks["s"], masks["m"])

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


class TestLinkTypes:
    """Both link routes build once per link type: the coface route per
    (feet, band, masks), the models per input and then per ascending
    items and band caps."""

    @staticmethod
    def build(x, spec):
        f, c, sec, band = x.feet, spec.character, spec.secondary, spec.band
        return [ascending_link(x, spec), descending_link(x, spec),
                link_of(x, band), ascending_link_model(f, c, sec, band),
                descending_link_model(f, c, sec, band)]

    @given(rngs(), st.sampled_from(COEFFICIENTS),
           st.sampled_from(COEFFICIENTS), st.sampled_from([1, -1]),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_cached_equals_uncached(self, rng, a, b, sec, below, above):
        f = rng.randint(2, 8)
        x = random_vertex(rng, f, rng.randint(0, 8))
        spec = MorseSpec(Character(a, b), sec, (max(2, f - below), f + above))
        caches = ((steinfarley_mod, steinfarley_mod._link_complex),
                  (complexes_mod, complexes_mod._model_for),
                  (complexes_mod, complexes_mod._model_complex))
        cached = self.build(x, spec)
        again = self.build(x, spec)  # every call a hit
        assert all(c is d for c, d in zip(cached, again))
        info = [cache.cache_info() for _, cache in caches]
        with pytest.MonkeyPatch.context() as mp:
            for mod, cache in caches:
                mp.setattr(mod, cache.__name__, cache.__wrapped__)
            built = self.build(x, spec)
        assert [cache.cache_info() for _, cache in caches] == info
        assert built == cached

    @given(rngs(), st.sampled_from(COEFFICIENTS),
           st.sampled_from(COEFFICIENTS), st.sampled_from([1, -1]),
           st.sampled_from([2, 3, Fraction(1, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_equal_types_share_one_object(self, rng, a, b, sec, k):
        f = rng.randint(2, 8)
        x, y = (random_vertex(rng, f, rng.randint(0, 8)) for _ in "xy")
        band = (2, f + 3)
        spec = MorseSpec(Character(a, b), sec, band)
        assert link_of(x, band) is link_of(y, list(band))
        for down in (False, True):
            same = (_monotone_masks(x, spec, down)
                    == _monotone_masks(y, spec, down))
            assert (ascending_link(x, spec, down)
                    is ascending_link(y, spec, down)) == same
        # a positive multiple keeps every sign, so the items are equal
        for model in (ascending_link_model, descending_link_model):
            assert (model(f, Character(a, b), sec, band)
                    is model(f, Character(k * a, k * b), sec, band))

    def test_bad_input_raises_after_a_good_call(self):
        x = random_vertex(random.Random(23), 4, 5)
        y = random_vertex(random.Random(24), 7, 5)
        spec = MorseSpec(Character(-1, 2), 1, (2, 6))
        char = spec.character
        for _ in range(2):
            self.build(x, spec)
            for link in (ascending_link, descending_link):
                with pytest.raises(ValueError, match="7 feet, outside band"):
                    link(y, spec)
            with pytest.raises(ValueError, match="7 feet, outside band"):
                link_of(y, spec.band)
            # 4.0 and Fraction(4) hash as 4, and (2.0, 6) gives 4 feet the
            # caps (2, 2): each would be a cached key, were it not refused;
            # True and False are refused as bools, not as feet off the band
            for model in (ascending_link_model, descending_link_model):
                for n in (4.0, Fraction(4), True, False):
                    with pytest.raises(ValueError, match="must be an int"):
                        model(n, char, 1, spec.band)
                with pytest.raises(ValueError, match="must be integers"):
                    model(4, char, 1, (2.0, 6))
                with pytest.raises(ValueError, match="outside band"):
                    model(7, char, 1, spec.band)


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
