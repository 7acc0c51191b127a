"""Height functions on vertices and the Morse-gap check."""

import random
import re
from fractions import Fraction
from types import SimpleNamespace

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

    @pytest.mark.parametrize("secondary, band, message", [
        (True, (2, 3), "secondary must be"),   # True in (1, -1) holds
        (False, (2, 3), "secondary must be"),
        (1.0, (2, 3), "secondary must be"),
        (1, None, "band must be a pair"),
        (1, (2, 5, 7), "band must be a pair"),
        (1, (2,), "band must be a pair"),
        (1, 5, "band must be a pair"),
        (-1, (True, 3), "band bounds must be integers"),
        (-1, (2.0, 3), "band bounds must be integers"),
    ])
    def test_morse_spec_rejects_with_value_error(self, secondary, band,
                                                 message):
        with pytest.raises(ValueError, match=message):
            MorseSpec(Character(1, 0), secondary, band)

    # the character cases of the test above; a character argument there
    # would rename its cases
    @pytest.mark.parametrize("character", ["x", None, (1, 1), [1, 1]])
    def test_morse_spec_rejects_a_non_character(self, character):
        with pytest.raises(ValueError, match="character must be a "
                           f"Character, got {re.escape(repr(character))}"):
            MorseSpec(character, 1, (2, 5))

    # a float was once read as its binary fraction (0.1 gave a at scale
    # 2^55) and a bool as the int it subclasses
    @pytest.mark.parametrize("a, b", [
        (0.1, 1), (1, 0.5), (1.0, 1), (True, 1), (1, False), ("1", 1),
        (None, 1)])
    def test_character_rejects_inexact_coefficients(self, a, b):
        bad = a if not (type(a) is int or isinstance(a, Fraction)) else b
        with pytest.raises(ValueError, match=f"character coefficient "
                           f"{re.escape(repr(bad))} is not an int or "
                           "Fraction"):
            Character(a, b)

    def test_character_keeps_ints_and_fractions(self):
        c = Character(-2, Fraction(3, 4))
        assert (c.a, c.b, c.scale, c.ints) == (-2, Fraction(3, 4), 4, (-8, 3))
        assert Character.parse("1/2, -1") == Character(Fraction(1, 2), -1)
        assert Character.parse("0.5,1") == Character(Fraction(1, 2), 1)

    @pytest.mark.parametrize("band", [(2, 5), [2, 5], iter((2, 5))])
    def test_morse_spec_keeps_the_band_as_a_pair(self, band):
        assert MorseSpec(Character(1, 0), 1, band).band == (2, 5)


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


COEFFICIENTS = st.one_of(
    st.just(Fraction(0)), st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=7))


def fraction_morse_check(spec, fragment):
    """The gap check in exact rationals: the oracle of the integer one."""
    eps = epsilon(spec.character)
    a, b = spec.character.a, spec.character.b
    c0, c1, ft = (fragment.chi0_values, fragment.chi1_values,
                  fragment.feet_values)
    out = []
    for i, j in fragment.edges:
        dchi = a * (c0[j] - c0[i]) + b * (c1[j] - c1[i])
        if dchi != 0:
            if abs(dchi) < eps:
                out.append((i, j, f"0 < |dchi| = {abs(dchi)} < {eps}"))
        elif ft[i] == ft[j]:
            out.append((i, j, "chi tie with equal feet"))
    return out


def sign(x):
    return (x > 0) - (x < 0)


class TestIntegerForm:
    @given(COEFFICIENTS, COEFFICIENTS)
    @settings(max_examples=200)
    def test_scaled_coefficients(self, a, b):
        c = Character(a, b)
        big_a, big_b = c.ints
        assert isinstance(big_a, int) and isinstance(big_b, int)
        assert c.scale > 0
        assert Fraction(big_a, c.scale) == a and Fraction(big_b, c.scale) == b

    @given(COEFFICIENTS, COEFFICIENTS,
           st.tuples(*[st.integers(-9, 9)] * 4))
    @settings(max_examples=300)
    def test_sign_of_height_difference(self, a, b, counts):
        c = Character(a, b)
        big_a, big_b = c.ints
        x0, x1, y0, y1 = counts
        exact = (a * y0 + b * y1) - (a * x0 + b * x1)
        scaled = (big_a * y0 + big_b * y1) - (big_a * x0 + big_b * x1)
        assert sign(scaled) == sign(exact)
        assert scaled == exact * c.scale

    def test_one_zero_coefficient(self):
        c = Character(0, Fraction(-2, 3))
        assert (c.scale, c.ints) == (3, (0, -2))

    def test_integer_form_is_not_a_field(self):
        c = Character(Fraction(2, 4), -1)
        assert c == Character(Fraction(1, 2), -1)
        assert hash(c) == hash(Character(Fraction(1, 2), -1))
        assert repr(c) == "Character(a=Fraction(1, 2), b=Fraction(-1, 1))"
        assert str(c) == "1/2,-1" and c.to_json() == {"a": "1/2", "b": "-1"}


FRAGMENTS = {}


def small_fragment(band):
    if band not in FRAGMENTS:
        seed = reduce(random_vertex(random.Random(band[1]), band[0], 3))
        FRAGMENTS[band] = explore([seed], band, max_vertices=150)
    return FRAGMENTS[band]


class TestIntegerGapCheck:
    @given(COEFFICIENTS, COEFFICIENTS, st.sampled_from([1, -1]),
           st.sampled_from([(2, 4), (3, 5)]))
    @settings(max_examples=120)
    def test_equals_fraction_oracle(self, a, b, sec, band):
        if a == b == 0:
            return
        spec = MorseSpec(Character(a, b), sec, band)
        frag = small_fragment(band)
        assert check_morse_on_fragment(spec, frag) == \
            fraction_morse_check(spec, frag)

    def test_violation_message(self):
        frag = SimpleNamespace(chi0_values=[0, 1], chi1_values=[0, 1],
                               feet_values=[2, 3], edges=[(0, 1)])
        spec = MorseSpec(Character(Fraction(1, 2), Fraction(-1, 3)), 1,
                         (2, 3))
        expected = [(0, 1, "0 < |dchi| = 1/6 < 1/3")]
        assert check_morse_on_fragment(spec, frag) == expected
        assert fraction_morse_check(spec, frag) == expected

    def test_zero_character_still_rejected(self):
        with pytest.raises(ValueError):
            check_morse_on_fragment(MorseSpec(Character(0, 0), 1, (2, 3)),
                                    small_fragment((2, 4)))
