"""Height functions on vertices and the Morse-gap check."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitmerge.characters import (
    Character,
    MorseSpec,
    check_morse_on_fragment,
    chi,
    chi0,
    chi1,
    count_left,
    count_right,
    epsilon,
    refined_compare,
    refined_height,
)
from splitmerge.diagrams import (
    apply_move,
    multiply,
    parse_diagram,
    random_expansion,
    random_group_element,
    random_vertex,
    reduce,
)
from splitmerge.steinfarley import explore
from splitmerge.trees import parse_forest


def rngs():
    return st.integers(0, 2**32 - 1).map(random.Random)


class TestEndDepthCounts:
    def test_examples(self):
        assert count_left(parse_forest("[((*,*),*)]")) == 2
        assert count_right(parse_forest("[((*,*),*)]")) == 1
        assert count_left(parse_forest("[*,*,*]")) == 0
        assert count_right(parse_forest("[*,*,*]")) == 0
        assert count_left(parse_forest("[*,(*,*)]")) == 0
        assert count_right(parse_forest("[*,(*,*)]")) == 1


class TestChi:
    def test_identity_vertex(self):
        d = parse_diagram("[*]/[*]")
        assert chi0(d) == 0 and chi1(d) == 0

    def test_single_split(self):
        d = parse_diagram("[(*,*)]/[*,*]")
        assert chi0(d) == -1 and chi1(d) == -1

    def test_two_carets(self):
        d = parse_diagram("[((*,*),*)]/[*,(*,*)]")
        assert chi0(d) == -2 and chi1(d) == 0

    def test_chi_linear_combination(self):
        d = parse_diagram("[(*,*)]/[*,*]")
        assert chi(Character(1, 0), d) == -1
        assert chi(Character(0, 0), d) == 0
        assert chi(Character(1, 1), parse_diagram("[*]/[*]")) == 0

    def test_feet(self):
        assert parse_diagram("[*]/[*]").feet == 1
        assert parse_diagram("[(*,*)]/[*,*]").feet == 2

    @given(rngs())
    @settings(max_examples=100)
    def test_homomorphism(self, rng):
        g = random_group_element(rng, 6)
        h = random_group_element(rng, 6)
        c = Character(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        assert chi(c, multiply(g, h)) == chi(c, g) + chi(c, h)

    @given(rngs())
    @settings(max_examples=100)
    def test_invariance_under_expansion(self, rng):
        d = reduce(random_vertex(rng, rng.randint(1, 4), 4))
        e = random_expansion(rng, d, 3)
        assert chi0(e) == chi0(d)
        assert chi1(e) == chi1(d)


class TestMoveDeltas:
    # split foot 1: -a; split last: -b; split interior: 0
    # merge feet 1,2: +a; merge last two: +b; merge interior: 0
    @given(rngs())
    @settings(max_examples=80)
    def test_all_six_classes(self, rng):
        a, b = Fraction(2), Fraction(3)
        c = Character(a, b)
        x = reduce(random_vertex(rng, rng.randint(4, 6), 4))
        n = x.feet
        expected = {
            ("s", 1): -a,
            ("s", n): -b,
            ("s", rng.randint(2, n - 1)): Fraction(0),
            ("m", 1): a,
            ("m", n - 1): b,
            ("m", rng.randint(2, n - 2)): Fraction(0),
        }
        for mv, delta in expected.items():
            y = apply_move(x, mv)
            assert chi(c, y) - chi(c, x) == delta, mv


class TestCharacterValue:
    def test_parse(self):
        c = Character.parse("1/2,-1/3")
        assert c.a == Fraction(1, 2) and c.b == Fraction(-1, 3)
        assert Character.parse("2,1") == Character(2, 1)

    def test_json(self):
        assert Character(Fraction(1, 2), Fraction(-1, 3)).to_json() == {
            "a": "1/2",
            "b": "-1/3",
        }

    def test_negated(self):
        assert Character(1, -2).negated() == Character(-1, 2)

    def test_epsilon(self):
        assert epsilon(Character(1, 0)) == 1
        assert epsilon(Character(-2, 3)) == 2
        assert epsilon(Character(Fraction(1, 2), Fraction(-1, 3))) == Fraction(1, 3)
        with pytest.raises(ValueError):
            epsilon(Character(0, 0))


class TestRefinedOrder:
    def test_secondary_breaks_ties(self):
        spec_up = MorseSpec(Character(1, 0), 1, (2, 9))
        spec_down = MorseSpec(Character(1, 0), -1, (2, 9))
        x = parse_diagram("[(*,(*,*))]/[*,*,*]")      # chi0 = -1, feet 3
        y = parse_diagram("[(*,((*,*),*))]/[*,*,*,*]")  # chi0 = -1, feet 4
        assert chi0(x) == chi0(y) == -1
        assert refined_compare(spec_up, x, y) < 0
        assert refined_compare(spec_down, x, y) > 0

    def test_lexicographic_dominance(self):
        for sec in (1, -1):
            spec = MorseSpec(Character(1, 0), sec, (2, 9))
            hi = parse_diagram("[*]/[*]")             # chi0 = 0, feet 1
            lo = parse_diagram("[(*,*)]/[*,*]")       # chi0 = -1, feet 2
            assert refined_compare(spec, lo, hi) < 0

    def test_refined_height_tuple(self):
        spec = MorseSpec(Character(1, 0), -1, (2, 9))
        x = parse_diagram("[(*,*)]/[*,*]")
        assert refined_height(spec, x) == (Fraction(-1), -2)

    def test_morse_spec_validation(self):
        with pytest.raises(ValueError):
            MorseSpec(Character(1, 0), 0, (2, 3))
        with pytest.raises(ValueError):
            MorseSpec(Character(1, 0), 1, (3, 2))
        with pytest.raises(ValueError):
            MorseSpec(Character(1, 0), 1, (1, 3))


class TestMorseGap:
    @pytest.mark.parametrize(
        "char", [Character(1, 0), Character(1, 1), Character(Fraction(1, 2), Fraction(-1, 3))]
    )
    def test_no_violations_on_fragment(self, char):
        seed = reduce(random_vertex(random.Random(1), 3, 3))
        frag = explore([seed], (3, 4), max_vertices=300)
        for sec in (1, -1):
            spec = MorseSpec(char, sec, (3, 4))
            assert check_morse_on_fragment(spec, frag) == []

    def test_adjacent_never_equal(self):
        # every edge changes chi by >= epsilon or keeps chi and changes feet
        seed = reduce(random_vertex(random.Random(2), 2, 2))
        frag = explore([seed], (2, 5), max_vertices=200)
        c = Character(1, 1)
        spec = MorseSpec(c, 1, (2, 5))
        for i, j in frag.edges:
            x, y = frag.vertices[i], frag.vertices[j]
            assert refined_compare(spec, x, y) != 0
