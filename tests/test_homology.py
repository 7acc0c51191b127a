"""Integral chain complexes, homology, and the dual-route rank oracle."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from splitmerge.characters import Character
from splitmerge.complexes import (
    SimplicialComplex,
    cone,
    gm_linear,
    m_linear,
)
from splitmerge.diagrams import parse_diagram
from splitmerge.homology import (
    ChainComplex,
    betti_via_rational_ranks,
    connectivity_evidence,
    cubical_chain_complex,
    fragment_pair_homology,
    homology,
    homology_report,
    pi1_trivial,
    quotient_chain_complex,
    rank_over_rationals,
    relative_homology,
    simplicial_chain_complex,
    smith_normal_form,
    subdivision_complex,
)
from splitmerge.steinfarley import explore


def fs(*labels):
    return frozenset(labels)


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


class TestSmithNormalForm:
    def test_diagonal_divisibility(self):
        rng = random.Random(0)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            diag = smith_normal_form(m)
            nonzero = [d for d in diag if d != 0]
            assert all(d > 0 for d in nonzero)
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0

    def test_rank_matches_rational_oracle(self):
        rng = random.Random(1)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            diag = smith_normal_form(m)
            assert sum(1 for d in diag if d != 0) == rank_over_rationals(m)

    def test_known_torsion(self):
        assert smith_normal_form([[2, 0], [0, 2]]) == [1, 4] or smith_normal_form(
            [[2, 0], [0, 2]]
        ) == [2, 2]


class TestChainComplex:
    def test_boundary_squared_checked(self):
        with pytest.raises(ValueError):
            ChainComplex([1, 1, 1], [[{0: 1}], [{0: 1}]])

    @pytest.mark.parametrize("dims, boundaries", [
        ([1, 1], [[{1: 1}]]),          # row out of range
        ([1, 1], [[{-1: 1}]]),         # negative row
        ([1, 2], [[{0: 1}]]),          # too few columns
        ([1, 1], [[{0: 1}, {0: 1}]]),  # too many columns
        ([1, 1], [[{0: 0}]]),          # stored zero
        ([1, 1], [[[1]]]),             # dense row instead of a column
        ([1, 1, 1], [[{0: 1}]]),       # missing boundary map
    ])
    def test_malformed_sparse_boundary(self, dims, boundaries):
        with pytest.raises(ValueError):
            ChainComplex(dims, boundaries)

    def test_triangle_boundary_ranks(self):
        cc = simplicial_chain_complex(SimplicialComplex.boundary_sphere([1, 2, 3]))
        assert cc.dims == [3, 3]

    def test_gm3_ranks(self):
        cc = simplicial_chain_complex(gm_linear(3))
        assert cc.dims == [5, 5, 1]

    def test_single_square_cube(self):
        frag = explore([parse_diagram("[(*,*)]/[*,*]")], (2, 4), max_vertices=100)
        assert any(w.count("L") == 2 for _, w in frag.cubes)
        cc = cubical_chain_complex(frag)
        assert len(cc.dims) == 3 and cc.dims[2] >= 1


class TestHomology:
    def test_circle(self):
        k = SimplicialComplex([fs(1, 2), fs(2, 3), fs(1, 3)])
        h = homology(simplicial_chain_complex(k))
        assert h[0]["betti"] == 1 and h[1] == {"betti": 1, "torsion": []}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spheres(self, k):
        sphere = SimplicialComplex.boundary_sphere(range(k + 2))
        h = homology(simplicial_chain_complex(sphere))
        assert h[0]["betti"] == 1
        for i in range(1, k):
            assert h[i] == {"betti": 0, "torsion": []}
        assert h[k] == {"betti": 1, "torsion": []}

    def test_m4_two_components(self):
        rep = homology_report(m_linear(4))
        assert rep["betti"][0] == 2
        assert rep["betti_reduced"][0] == 1
        assert not rep["connected"]

    def test_m5_contractible(self):
        rep = homology_report(m_linear(5))
        assert rep["connected"]
        assert all(b == 0 for b in rep["betti_reduced"])
        assert all(t == [] for t in rep["torsion"])

    def test_cones_trivial_in_positive_degrees(self):
        rng = random.Random(5)
        for _ in range(10):
            labels = list(range(rng.randint(2, 6)))
            facets = [
                fs(*rng.sample(labels, rng.randint(1, min(3, len(labels)))))
                for _ in range(rng.randint(1, 5))
            ]
            c = cone(SimplicialComplex(facets), "apex")
            h = homology(simplicial_chain_complex(c))
            assert h[0]["betti"] == 1
            assert all(
                hi == {"betti": 0, "torsion": []} for hi in h[1:]
            )

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_betti_agrees_with_rational_route(self, seed):
        rng = random.Random(seed)
        labels = list(range(rng.randint(3, 7)))
        facets = [
            fs(*rng.sample(labels, rng.randint(1, min(4, len(labels)))))
            for _ in range(rng.randint(1, 6))
        ]
        cc = simplicial_chain_complex(SimplicialComplex(facets))
        snf = [h["betti"] for h in homology(cc)]
        assert snf == betti_via_rational_ranks(cc)


# non-unit entries leave a block for the dense Smith normal form
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 6])


@st.composite
def integer_matrices(draw):
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 7))
    return [[draw(ENTRIES) for _ in range(n_cols)] for _ in range(n_rows)]


class TestSparseElimination:
    @given(integer_matrices())
    @example([[2, 0], [0, 3]])
    @example([[2, 4], [6, -3]])
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_smith_normal_form(self, m):
        # a single boundary map is a two-term complex: H0 = coker, H1 = ker
        n_rows, n_cols = len(m), len(m[0])
        columns = [{i: m[i][j] for i in range(n_rows) if m[i][j]}
                   for j in range(n_cols)]
        diag = smith_normal_form(m)
        torsion = [d for d in diag if d > 1]
        assert homology(ChainComplex([n_rows, n_cols], [columns])) == [
            {"betti": n_rows - len(diag), "torsion": torsion},
            {"betti": n_cols - len(diag), "torsion": []},
        ]

    def test_projective_plane_torsion(self):
        # the six-vertex triangulation of RP^2
        rp2 = SimplicialComplex([
            fs(1, 2, 3), fs(1, 3, 4), fs(1, 4, 5), fs(1, 5, 6), fs(1, 2, 6),
            fs(2, 3, 5), fs(2, 4, 5), fs(2, 4, 6), fs(3, 4, 6), fs(3, 5, 6),
        ])
        rep = homology_report(rp2)
        assert rep["betti"] == [1, 0, 0]
        assert rep["torsion"] == [[], [2], []]


class TestCubicalVsSubdivision:
    @pytest.mark.parametrize("cap", [40, 90])
    def test_same_homology(self, cap):
        frag = explore([parse_diagram("[(*,*)]/[*,*]")], (2, 5), max_vertices=cap)
        cub = homology(cubical_chain_complex(frag))
        sub = homology(simplicial_chain_complex(subdivision_complex(frag)))
        width = max(len(cub), len(sub))
        pad = {"betti": 0, "torsion": []}
        cub = cub + [pad] * (width - len(cub))
        sub = sub + [pad] * (width - len(sub))
        assert cub == sub


class TestPi1:
    def test_four_cycle_nontrivial(self):
        k = SimplicialComplex([fs(1, 2), fs(2, 3), fs(3, 4), fs(1, 4)])
        assert pi1_trivial(k) == "nontrivial"

    def test_two_sphere_trivial(self):
        assert pi1_trivial(SimplicialComplex.boundary_sphere(range(4))) == "trivial"

    def test_cone_trivial(self):
        k = cone(m_linear(6), "apex")
        assert pi1_trivial(k) == "trivial"

    def test_tiny_budget_inconclusive_or_resolves(self):
        k = SimplicialComplex.boundary_sphere(range(5))
        assert pi1_trivial(k, budget=1) in {"trivial", "inconclusive"}


class TestRelative:
    def test_pair_with_itself_vanishes(self):
        k = gm_linear(3)
        assert all(
            h == {"betti": 0, "torsion": []} for h in relative_homology(k, k)
        )

    def test_cone_base_pair_vanishes(self):
        base = m_linear(5)
        c = cone(base, "apex")
        h = relative_homology(c, base)
        assert all(hi == {"betti": 0, "torsion": []} for hi in h[:2])

    def test_requires_subcomplex(self):
        k = gm_linear(2)
        other = SimplicialComplex([fs("zz")])
        with pytest.raises(ValueError):
            relative_homology(k, other)

    def test_quotient_requires_closed_subset(self):
        cc = simplicial_chain_complex(SimplicialComplex([fs(1, 2, 3)]))
        with pytest.raises(ValueError):
            # dropping an edge while keeping its endpoints is not a subcomplex
            quotient_chain_complex(cc, [set(), {0}, set()])

    def test_fragment_pair(self):
        c = Character(1, 0)
        frag = explore(
            [parse_diagram("[(*,*)]/[*,*]")],
            (2, 4),
            characters=(c,),
            max_vertices=60,
        )
        vals = frag.chi_values[str(c)]
        floor = min(vals)
        h = fragment_pair_homology(frag, lambda i: vals[i] <= floor)
        assert isinstance(h, list) and all("betti" in hi for hi in h)


class TestConnectivityEvidence:
    def test_m7_connected(self):
        rep = connectivity_evidence(m_linear(7), 0)
        assert rep["verdict"] == "consistent"

    def test_m3_nonempty_bound(self):
        rep = connectivity_evidence(m_linear(3), -1)
        assert rep["verdict"] == "consistent"
        assert [c["name"] for c in rep["checks"]] == ["nonempty"]

    def test_gm3_connected(self):
        assert connectivity_evidence(gm_linear(3), 0)["verdict"] == "consistent"

    def test_m8_simply_connected(self):
        rep = connectivity_evidence(m_linear(8), 1)
        assert rep["verdict"] == "consistent"
        assert rep["pi1"] == "trivial"

    def test_disconnected_fails_k0(self):
        rep = connectivity_evidence(m_linear(4), 0)
        assert rep["verdict"] != "consistent"
