"""Integral chain complexes, homology, and the dual-route rank oracle."""

import contextlib
import functools
import heapq
import importlib
import random
import re
import signal
from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, groupby, permutations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from splitmerge.characters import Character, MorseSpec
from splitmerge.complexes import (
    SimplicialComplex,
    cone,
    gm_linear,
    join,
    m_linear,
)
from splitmerge.diagrams import parse_diagram, random_vertex
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
from splitmerge.steinfarley import (
    Fragment,
    ascending_link,
    descending_link,
    explore,
)

# the package re-exports homology(), which shadows the module attribute
homology_module = importlib.import_module("splitmerge.homology")


def fs(*labels):
    return frozenset(labels)


# the characters of the links benchmark
LINK_CHARACTERS = [Character(a, b) for a, b in (
    (-1, 1), (1, -1), (-2, 3), (3, -2), (-1, 2), (2, -1),
    (Fraction(1, 2), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(1, 2)))]


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _determinant(m) -> int:
    """Leibniz's formula: the signed sum over permutations, for small m."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(m[i][j] for i, j in enumerate(perm))
    return total


def determinantal_divisors(m) -> list:
    """d_1, d_2, ...: d_k is the gcd of the k x k minors, listed while it is
    nonzero; the Smith diagonal is then s_k = d_k / d_(k-1), with d_0 = 1."""
    out = []
    for k in range(1, min(len(m), len(m[0])) + 1):
        d = 0
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                d = gcd(d, _determinant([[m[i][j] for j in cols]
                                         for i in rows]))
        if not d:
            break
        out.append(d)
    return out


@st.composite
def matrices_up_to_5x5(draw):
    """Up to 5 x 5, with entries up to +-200 and many small ones."""
    n_cols = draw(st.integers(1, 5))
    entries = st.sampled_from([0, 0, 1, -1, 2]) | st.integers(-200, 200)
    return draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols),
                         min_size=1, max_size=5))


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
        assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    @given(matrices_up_to_5x5())
    @settings(max_examples=300, deadline=None)
    @example([[2, 4], [6, 8]])
    @example([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    def test_matches_determinantal_divisors(self, m):
        divisors = determinantal_divisors(m)
        assert smith_normal_form(m) == [
            d // c for c, d in zip([1] + divisors, divisors)]

    @pytest.mark.parametrize("matrix, bad", [
        ([[1.5, 2]], "1.5"),        # int() would truncate it to 1
        ([["3"]], "'3'"),           # int() would read it as 3
        ([[2, 0], [0, 2.0]], "2.0"),
        ([[1], [Fraction(1, 2)]], "Fraction"),
        ([[True, 0], [0, 2]], "True"),   # a bool is not an int
    ])
    def test_rejects_non_integer_entries(self, matrix, bad):
        with pytest.raises(ValueError, match=f"entry {bad}"):
            smith_normal_form(matrix)


# dims and boundaries a checked build rejects, and the bad item it names
BAD_ITEMS = [
    ([-2], [], "dims[0] is -2"),
    ([1.5], [], "dims[0] is 1.5"),
    (["2"], [], "dims[0] is '2'"),
    ([1, 1], [[{0: 2.5}]], "entry 2.5 at row 0"),
    ([1, 1], [[{0: "1"}]], "entry '1' at row 0"),
    ([1, 1], [[{0.0: 1}]], "entry 1 at row 0.0"),
    ([True], [], "dims[0] is True"),
    ([1, 1], [[{0: True}]], "entry True at row 0"),
    ([1, 1], [[{False: 1}]], "entry 1 at row False"),
]


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
    ] + [(dims, boundaries) for dims, boundaries, _ in BAD_ITEMS])
    def test_malformed_sparse_boundary(self, dims, boundaries):
        with pytest.raises(ValueError):
            ChainComplex(dims, boundaries)

    @pytest.mark.parametrize("dims, boundaries, named", BAD_ITEMS)
    def test_bad_item_is_named(self, dims, boundaries, named):
        with pytest.raises(ValueError, match=re.escape(named)):
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

    @pytest.mark.parametrize("n", range(2, 19))
    def test_kozlov_closed_form(self, n):
        # Kozlov (JCTA 88, 1999): the reduced homology of M(L_n) is Z in
        # degree floor(n/3) - 1, or zero everywhere when n = 2 (mod 3)
        rep = homology_report(m_linear(n))
        betti = rep["betti_reduced"] + [0] * n
        assert betti[:n] == [int(n % 3 != 2 and d == n // 3 - 1)
                             for d in range(n)]
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

    def test_three_sphere_trivial(self):
        k = SimplicialComplex.boundary_sphere(range(5))
        assert pi1_trivial(k) == "trivial"

    def test_empty_or_disconnected_is_rejected(self):
        with pytest.raises(ValueError, match="pi1 of the empty complex"):
            pi1_trivial(SimplicialComplex([]))
        # the matching cannot prove these; H0 shows them disconnected
        for k in (m_linear(4), SimplicialComplex([[1], [2]]),
                  SimplicialComplex([fs(1, 2), fs(2, 3), fs(1, 3), fs(4)])):
            with pytest.raises(ValueError, match="pi1 needs a connected"):
                pi1_trivial(k)


@st.composite
def connected_complexes(draw):
    """Random complexes on a path of up to 8 vertices, so always connected,
    with ints, strings and tagged tuples as labels."""
    labels = draw(st.permutations(
        [0, 1, 2, "a", "b", ("v", 1), ("e", 1), ("v", 2)]))
    n = draw(st.integers(1, len(labels)))
    labels = labels[:n]
    facets = [[labels[i], labels[i + 1]] for i in range(n - 1)] or [labels]
    facets += draw(st.lists(st.sets(st.sampled_from(labels), min_size=1,
                                    max_size=4), max_size=8))
    return SimplicialComplex(facets)


def _add_subsets(s: frozenset, out: set):
    if s in out:
        return
    out.add(s)
    for x in s:
        sub = s - {x}
        if sub:
            _add_subsets(sub, out)


def parent_simplicial_chain_complex(complex_, top=None):
    """(dims, boundaries, cells) of the builder as it stood before faces
    came from facets: every simplex by recursive subsets of the facets,
    each degree sorted by vertex positions (the old simplices and
    k_simplices), kept verbatim."""
    def k_simplices(k):
        simplices = set()
        for f in complex_.facets:
            _add_subsets(f, simplices)
        pos = {v: i for i, v in enumerate(complex_.vertices)}
        out = [s for s in simplices if len(s) == k + 1]
        out.sort(key=lambda s: sorted(pos[x] for x in s))
        return out

    dim = complex_.dim()
    if top is not None:
        dim = min(dim, top)
    if dim < 0:
        return [], [], []
    pos = {v: i for i, v in enumerate(complex_.vertices)}.__getitem__
    cells = [[tuple(sorted(s, key=pos)) for s in k_simplices(k)]
             for k in range(dim + 1)]
    dims = [len(c) for c in cells]
    boundaries = []
    for k in range(1, dim + 1):
        index = {s: i for i, s in enumerate(cells[k - 1])}
        boundaries.append([
            {index[simplex[:i] + simplex[i + 1:]]: -1 if i % 2 else 1
             for i in range(len(simplex))}
            for simplex in cells[k]])
    return dims, boundaries, cells


small_complexes = st.one_of(connected_complexes(), st.lists(
    st.sets(st.integers(0, 9), min_size=1, max_size=5),
    max_size=8).map(SimplicialComplex))


class TestChainsFromFacets:
    @given(small_complexes, st.sampled_from([None, 0, 1, 2, 3]))
    @settings(max_examples=300)
    def test_equals_parent_builder(self, k, top):
        cc = simplicial_chain_complex(k, top)
        assert (cc.dims, cc.boundaries, cc.cells) == \
            parent_simplicial_chain_complex(k, top)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_m_linear_equals_parent_builder(self, n):
        for top in (None, 0, 1, 2, 3):
            cc = simplicial_chain_complex(m_linear(n), top)
            assert (cc.dims, cc.boundaries, cc.cells) == \
                parent_simplicial_chain_complex(m_linear(n), top)

    def test_empty_complex(self):
        cc = simplicial_chain_complex(SimplicialComplex([]))
        assert (cc.dims, cc.boundaries, cc.cells) == ([], [], [])

    # a bool is not an int: True would build through degree 1
    @pytest.mark.parametrize("top", [-1, -5, 1.5, "2", 2.0, True, False])
    def test_bad_top_is_rejected(self, top):
        for k in (m_linear(6), SimplicialComplex([])):
            with pytest.raises(ValueError, match="top"):
                simplicial_chain_complex(k, top)


def assert_columns_in_combinations_order(complex_, top):
    """Each column lists its rows as combinations drops a vertex, the last
    one first, with signs (-1)^k, ..., +1. cells, read after the build and
    read again, equal the parent builder's."""
    cc = simplicial_chain_complex(complex_, top)
    dims, _, cells = parent_simplicial_chain_complex(complex_, top)
    assert cc.cells == cells and cc.cells is cc.cells
    pos = {v: i for i, v in enumerate(complex_.vertices)}
    faces = [[tuple(pos[v] for v in cell) for cell in level]
             for level in cells]
    assert cc.dims == dims
    for k in range(1, len(faces)):
        row = {face: i for i, face in enumerate(faces[k - 1])}
        assert [list(col.items()) for col in cc.boundaries[k - 1]] == [
            [(row[face[:i] + face[i + 1:]], (-1) ** i)
             for i in range(k, -1, -1)]
            for face in faces[k]]


class TestColumnKeyOrder:
    @given(small_complexes)
    @settings(max_examples=200)
    def test_random_complexes_at_every_top(self, k):
        for top in [None, *range(k.dim() + 2)]:
            assert_columns_in_combinations_order(k, top)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_m_linear(self, n):
        k = m_linear(n)
        for top in [None, *range(k.dim() + 2)]:
            assert_columns_in_combinations_order(k, top)

    def test_triangle_and_tetrahedron(self):
        tet = SimplicialComplex.simplex(range(4))
        cc = simplicial_chain_complex(tet)
        # edges 01 02 03 12 13 23; triangles 012 013 023 123
        assert list(cc.boundaries[1][0].items()) == [(0, 1), (1, -1), (3, 1)]
        assert list(cc.boundaries[1][3].items()) == [(3, 1), (4, -1), (5, 1)]
        assert list(cc.boundaries[2][0].items()) == \
            [(0, -1), (1, 1), (2, -1), (3, 1)]


class TestPi1FromReports:
    """Reports read pi1 off the matching and H1 as pi1_trivial does, so the
    verdict equals pi1_trivial's."""

    @given(connected_complexes())
    @settings(max_examples=200)
    @example(SimplicialComplex([fs(1, 2), fs(2, 3), fs(1, 3)]))
    @example(SimplicialComplex.boundary_sphere(range(5)))
    def test_reports_agree_with_pi1_trivial(self, k):
        want = pi1_trivial(k)
        assert connectivity_evidence(k, 1)["pi1"] == want
        assert connectivity_evidence(k, 2)["pi1"] == want
        assert homology_report(k, with_pi1=True)["pi1"] == want

    def test_one_homology_pass_per_report(self, monkeypatch):
        calls = []
        real = homology_module.homology

        def counted(chain, *matching):
            calls.append(chain)
            return real(chain, *matching)

        monkeypatch.setattr(homology_module, "homology", counted)
        monkeypatch.setattr(homology_module, "pi1_trivial", None)
        k = cone(m_linear(6), "apex")
        # the matching proves the cone simply connected: the evidence needs
        # no homology(), a report one homology() pass
        assert connectivity_evidence(k, 1)["pi1"] == "trivial"
        assert calls == []
        assert homology_report(k, with_pi1=True)["pi1"] == "trivial"
        assert len(calls) == 1

    def test_connectedness_is_read_from_h0(self, monkeypatch):
        def components(self):
            raise AssertionError("union-find called")

        monkeypatch.setattr(SimplicialComplex, "components", components)
        for k, detail in ((cone(m_linear(6), "apex"), "1 components"),
                          (m_linear(4), "2 components"),
                          (SimplicialComplex([[1, 2], [3], [4]]),
                           "3 components"),
                          (SimplicialComplex([]), "empty")):
            for degree in (0, 1, 2):
                checks = connectivity_evidence(k, degree)["checks"]
                assert checks[1]["name"] == "connected"
                assert checks[1]["detail"] == detail


def _reference_presentation(chain):
    """(generators, relators) of the spanning-tree presentation, built from
    the cells as the Tietze loop below built it before it read boundary
    columns; relators that are empty words are left out."""
    # vertex positions; cells list each simplex in increasing position
    pos = {v: i for i, (v,) in enumerate(chain.cells[0])}
    edges = [(pos[u], pos[v]) for u, v in chain.cells[1]]
    adjacency: list = [[] for _ in pos]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    tree = set()
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop(0)
        for w in sorted(adjacency[u]):
            if w not in seen:
                seen.add(w)
                tree.add((min(u, w), max(u, w)))
                queue.append(w)
    gens = {e: i + 1 for i, e in enumerate(e for e in edges if e not in tree)}

    def edge_word(u, v) -> list:
        g = gens.get((min(u, v), max(u, v)))
        if g is None:
            return []
        return [g if u < v else -g]

    triangles = chain.cells[2] if len(chain.cells) > 2 else []
    relators = [edge_word(a, b) + edge_word(b, c) + edge_word(c, a)
                for a, b, c in (map(pos.get, s) for s in triangles)]
    return set(gens.values()), [w for w in relators if w]


def _reference_pi1_verdict(chain, res, budget):
    """The Tietze loop as it stood before kill and substitution became one
    move, with the budget of moves it then took, kept verbatim."""
    if len(res) > 1 and (res[1]["betti"] > 0 or res[1]["torsion"]):
        return "nontrivial"
    if len(chain.cells) < 2:
        return "trivial"
    alive, relators = _reference_presentation(chain)
    steps = 0

    def free_reduce(word: list) -> list:
        out: list = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return out

    while steps < budget:
        steps += 1
        relators = [free_reduce(w) for w in relators]
        relators = [w for w in relators if w]
        if not alive:
            break
        acted = False
        # killed generator: relator of length 1
        for w in relators:
            if len(w) == 1:
                g = abs(w[0])
                relators = [[x for x in r if abs(x) != g] for r in relators]
                alive.discard(g)
                acted = True
                break
        if acted:
            continue
        # substitution: relator of length 2 names one generator by another
        for w in relators:
            if len(w) == 2 and abs(w[0]) != abs(w[1]):
                g = abs(w[1])
                # w[0]^s * w[1]^t = 1  =>  g = (w[0]-part)^-1 adjusted
                rep = [-w[0]] if w[1] > 0 else [w[0]]
                new_relators = []
                for r in relators:
                    if r is w:
                        continue
                    nr: list = []
                    for x in r:
                        if x == g:
                            nr.extend(rep)
                        elif x == -g:
                            nr.extend(-y for y in reversed(rep))
                        else:
                            nr.append(x)
                    new_relators.append(nr)
                relators = new_relators
                alive.discard(g)
                acted = True
                break
        if acted:
            continue
        # generator used exactly once anywhere: solve its relator for it
        usage: dict = {}
        for idx, r in enumerate(relators):
            for x in r:
                usage.setdefault(abs(x), []).append(idx)
        for g in sorted(alive):
            used = usage.get(g, [])
            if len(used) == 1:
                idx = used[0]
                relators = [r for i, r in enumerate(relators) if i != idx]
                alive.discard(g)
                acted = True
                break
            if not used:
                # generator with no relations left: group is nontrivial-free
                return "inconclusive"
        if not acted:
            break

    return "trivial" if not alive else "inconclusive"


def dunce_hat():
    """A triangle with its sides glued by the word a a a^-1, subdivided so
    that it is simplicial: contractible but not collapsible, and its
    spanning-tree presentation needs a substitution, not only kills."""
    rim = ["P", "x", "y", "P", "x", "y", "P", "y", "x"]
    ring = [f"i{k}" for k in range(9)]
    facets = []
    for k in range(9):
        n = (k + 1) % 9
        facets += [[rim[k], rim[n], ring[k]], [rim[n], ring[k], ring[n]],
                   [ring[k], ring[n], "c"]]
    return SimplicialComplex(facets)


def presentation_complex(n_gens, relators):
    """The presentation complex of <1, ..., n_gens | relators>, triangulated
    as dunce_hat is. Generator g is the 3-edge loop 0, (g, 1), (g, 2) at the
    vertex 0; letter g runs it forwards, letter -g backwards. A relator of
    length n is a disk: an annulus from a fresh 3n-cycle onto its boundary
    walk, plus a cone on that cycle."""
    facets = [[u, v] for g in range(1, n_gens + 1)
              for u, v in ((0, (g, 1)), ((g, 1), (g, 2)), ((g, 2), 0))]
    for r, word in enumerate(relators):
        rim = [v for x in word for v in
               (0, (abs(x), 1 if x > 0 else 2), (abs(x), 2 if x > 0 else 1))]
        ring = [("ring", r, k) for k in range(len(rim))]
        for k in range(len(rim)):
            n = (k + 1) % len(rim)
            facets += [[rim[k], rim[n], ring[k]],
                       [rim[n], ring[k], ring[n]],
                       [ring[k], ring[n], ("apex", r)]]
    return SimplicialComplex(facets)


RP2 = SimplicialComplex([
    fs(1, 2, 3), fs(1, 3, 4), fs(1, 4, 5), fs(1, 5, 6), fs(1, 2, 6),
    fs(2, 3, 5), fs(2, 4, 5), fs(2, 4, 6), fs(3, 4, 6), fs(3, 5, 6),
])


def pi1_verdicts(k) -> set:
    """pi1 of a connected complex as homology_report, pi1_trivial and
    connectivity_evidence at k = 1 read it."""
    return {homology_report(k, True)["pi1"], pi1_trivial(k),
            connectivity_evidence(k, 1)["pi1"]}


class TestTietzeStepAgainstReference:
    """The pi1 verdict against the reference Tietze loop at 20000 moves:
    weaker, never wrong. "trivial" only where the reference reaches
    "trivial", "nontrivial" exactly where it finds nonzero H1, and
    "inconclusive" wherever else the reference stops."""

    def assert_same(self, k):
        chain = simplicial_chain_complex(k, top=2)
        got, = pi1_verdicts(k)
        want = _reference_pi1_verdict(chain, homology(chain), 20000)
        assert got == want or (got, want) == ("inconclusive", "trivial")
        return got

    @given(connected_complexes())
    @settings(max_examples=300, deadline=None)
    @example(SimplicialComplex.boundary_sphere(range(6)))
    def test_random_complexes(self, k):
        self.assert_same(k)

    @pytest.mark.parametrize("n", range(5, 15))
    def test_matching_complexes(self, n):
        self.assert_same(m_linear(n))

    @given(st.integers(0, 2 ** 32), st.integers(2, 9), st.integers(0, 12),
           st.sampled_from(LINK_CHARACTERS), st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_links(self, seed, feet, carets, char, sec):
        # vertices and specs drawn as the links benchmark draws them
        x = random_vertex(random.Random(seed), feet, carets)
        spec = MorseSpec(char, sec, (2, feet + 3))
        for link in (ascending_link(x, spec), descending_link(x, spec)):
            if link.is_connected():
                self.assert_same(link)

    def test_cone(self):
        assert self.assert_same(cone(m_linear(6), "apex")) == "trivial"

    def test_dunce_hat(self):
        # contractible, so the reference reaches "trivial"; the matching
        # leaves a critical edge, so the verdict is weaker
        k = dunce_hat()
        assert homology_report(k)["betti_reduced"] == [0, 0, 0]
        assert self.assert_same(k) == "inconclusive"

    @pytest.mark.parametrize("n_gens, relators", [
        (1, [[1, 1, 1]]),                         # <a | a^3>
        (1, [[-1, -1, -1]]),                      # <a | a^-3>
        (2, [[-1], [-2, -2, -2]]),                # <a, b | a^-1, b^-3>
        (2, [[-1, -1, -2, -1], [2], [2]]),        # <a, c | a^-2c^-1a^-1, c, c>
    ])
    def test_presentation_complexes(self, n_gens, relators):
        self.assert_same(presentation_complex(n_gens, relators))

    def test_binary_icosahedral_group_is_never_trivial(self):
        # <s, t | s^3 t^-5, (st)^2 s^-3> presents the binary icosahedral
        # group: perfect and of order 120, so the complex is acyclic but not
        # simply connected
        k = presentation_complex(2, [[1, 1, 1, -2, -2, -2, -2, -2],
                                     [1, 2, 1, 2, -1, -1, -1]])
        assert k.f_vector() == (52, 186, 135)
        rep = homology_report(k)
        assert rep["betti_reduced"] == [0, 0, 0]
        assert rep["torsion"] == [[], [], []]
        # the reference loop stops with generators left
        assert self.assert_same(k) == "inconclusive"


class TestPi1Rule:
    """pi1 is "trivial" exactly on a matching proof (one critical vertex,
    no critical edge), "nontrivial" exactly on nonzero H1, and
    "inconclusive" otherwise, from every entry point."""

    @given(connected_complexes())
    @settings(max_examples=300, deadline=None)
    @example(dunce_hat())
    @example(RP2)
    @example(SimplicialComplex([fs(1, 2), fs(2, 3), fs(1, 3)]))
    def test_rule(self, k):
        chain = simplicial_chain_complex(k, top=2)
        critical = homology_module._critical_cells(chain)[0]
        h1 = elimination_homology(chain)[1:2]
        want = ("trivial" if critical[:2] in ([1], [1, 0]) else
                "nontrivial" if any(r["betti"] or r["torsion"] for r in h1)
                else "inconclusive")
        assert pi1_verdicts(k) == {want}

    def test_projective_plane_is_nontrivial(self):
        # H1 = Z/2: torsion alone makes pi1 nontrivial
        assert pi1_verdicts(RP2) == {"nontrivial"}


NOT_A_COMPLEX = [[[1, 2]], None, "12", frozenset({1}),
                 simplicial_chain_complex(SimplicialComplex([fs(1, 2)]))]


class TestEntryPointTypes:
    """Each homology entry point names the argument that has the wrong
    type, with a ValueError."""

    @pytest.mark.parametrize("bad", NOT_A_COMPLEX)
    def test_complex_arguments(self, bad):
        k = SimplicialComplex([fs(1, 2)])
        for call in (lambda: homology_report(bad),
                     lambda: homology_report(bad, True),
                     lambda: pi1_trivial(bad),
                     lambda: connectivity_evidence(bad, 1),
                     lambda: simplicial_chain_complex(bad),
                     lambda: relative_homology(bad, k)):
            with pytest.raises(ValueError,
                               match="complex_ must be a SimplicialComplex"):
                call()
        with pytest.raises(ValueError,
                           match="subcomplex must be a SimplicialComplex"):
            relative_homology(k, bad)

    @pytest.mark.parametrize("bad", [[[1]], None, SimplicialComplex([[1]])])
    def test_chain_argument(self, bad):
        with pytest.raises(ValueError, match="chain must be a ChainComplex"):
            homology(bad)

    @pytest.mark.parametrize("bad", [2, 1, 0, None, "yes", 1.0])
    def test_with_pi1_is_a_bool(self, bad):
        with pytest.raises(ValueError, match="with_pi1 must be a bool"):
            homology_report(m_linear(8), bad)


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

    # the path 1-2-3: vertices 0, 1, 2 and edges 0 (12), 1 (23)
    PATH = SimplicialComplex([fs(1, 2), fs(2, 3)])

    def test_quotient_rejects_a_negative_index(self):
        # -1 would read as the last edge, pass the closure check and be kept
        cc = simplicial_chain_complex(self.PATH)
        with pytest.raises(ValueError, match="degree 1 has no cell -1"):
            quotient_chain_complex(cc, [{0, 1, 2}, {-1}])

    def test_quotient_rejects_a_vertex_index_out_of_range(self):
        cc = simplicial_chain_complex(self.PATH)
        with pytest.raises(ValueError, match="degree 0 has no cell 5"):
            quotient_chain_complex(cc, [{5}])

    def test_quotient_rejects_an_edge_index_out_of_range(self):
        cc = simplicial_chain_complex(self.PATH)
        with pytest.raises(ValueError, match="degree 1 has no cell 7"):
            quotient_chain_complex(cc, [set(), {7}])

    def test_quotient_rejects_cells_past_the_top_degree(self):
        cc = simplicial_chain_complex(self.PATH)
        with pytest.raises(ValueError, match="degree 2 has no cell 0"):
            quotient_chain_complex(cc, [set(), set(), {0}])
        # empty levels past the top drop nothing
        assert quotient_chain_complex(
            cc, [set(), set(), set()]).dims == cc.dims

    @pytest.mark.parametrize("dropped", [
        [{0.5}], [{0, 1.5}], [{"0"}], [{True}], [{0, 0.5, 2}]])
    def test_quotient_rejects_an_index_that_is_not_an_int(self, dropped):
        # a float, also one between the min and max, a str and a bool name
        # no cell
        cc = simplicial_chain_complex(self.PATH)
        bad = next(i for i in dropped[0] if type(i) is not int)
        with pytest.raises(ValueError,
                           match=re.escape(f"degree 0 has no cell {bad!r}")):
            quotient_chain_complex(cc, dropped)

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

    def test_edited_report_leaves_next_report_alone(self):
        k = m_linear(8)
        want = connectivity_evidence(k, 1)
        for mutate in (lambda r: r["checks"][0].update(ok=False),
                       lambda r: r["checks"].append({"name": "extra"}),
                       lambda r: r.update(verdict="fail")):
            mutate(connectivity_evidence(k, 1))
            assert connectivity_evidence(k, 1) == want
        assert want["verdict"] == "consistent" and len(want["checks"]) == 4

    def test_invalid_arguments(self):
        k = m_linear(8)
        for call in (lambda: connectivity_evidence(k, -2),
                     lambda: connectivity_evidence(k, -3)):
            with pytest.raises(ValueError):
                call()
        # the dunce hat is contractible, but its matching leaves a critical
        # edge and H1 = 0, so pi1 is left open
        k = dunce_hat()
        assert homology_module._critical_cells(
            simplicial_chain_complex(k, top=2))[0] == [1, 1, 1]
        assert connectivity_evidence(k, 1)["pi1"] == "inconclusive"
        assert homology_report(k, True)["pi1"] == "inconclusive"
        assert pi1_trivial(k) == "inconclusive"

    @pytest.mark.parametrize("k", [1.5, "1", None, 1.0, True, False])
    def test_k_that_is_not_an_int_is_rejected_by_name(self, k):
        with pytest.raises(ValueError, match="k must be an int"):
            connectivity_evidence(m_linear(8), k)

    def test_k_below_minus_one_keeps_its_error(self):
        with pytest.raises(ValueError, match=r"need k >= -1, got -2"):
            connectivity_evidence(m_linear(8), -2)


def proved(complex_):
    """The coreduction matching proves the complex simply connected."""
    chain = simplicial_chain_complex(complex_, top=2)
    return homology_module._critical_cells(chain)[0][:2] in ([1], [1, 0])


def pi1_rule(complex_, res):
    """pi1 of a connected complex with homology res (through H1 at least,
    or with no edges): "trivial" on a matching proof, "nontrivial" on
    nonzero H1, else "inconclusive"."""
    if proved(complex_):
        return "trivial"
    h1 = res[1] if len(res) > 1 else {"betti": 0, "torsion": []}
    return "nontrivial" if h1["betti"] or h1["torsion"] else "inconclusive"


def parent_homology_report(complex_, with_pi1=False):
    """homology_report as it stood when connectedness came from a
    union-find over the facets instead of from H0, kept verbatim but for
    pi1_rule in place of the Tietze loop it called."""
    nonempty = not complex_.is_empty()
    comps = complex_.components() if nonempty else []
    chain = simplicial_chain_complex(complex_)
    res = homology(chain)
    betti = [r["betti"] for r in res]
    torsion = [r["torsion"] for r in res]
    reduced = list(betti)
    if nonempty:
        reduced[0] = betti[0] - 1
    report = {
        "betti": betti,
        "betti_reduced": reduced,
        "torsion": torsion,
        "nonempty": nonempty,
        "connected": len(comps) == 1,
        "pi1": None,
    }
    if with_pi1 and nonempty and len(comps) == 1:
        report["pi1"] = pi1_rule(complex_, res)
    return report


def parent_connectivity_evidence(complex_, k):
    """connectivity_evidence as it stood with a branch per degree and per
    emptiness case, kept verbatim but for pi1_rule in place of the Tietze
    loop."""
    checks = []
    nonempty = not complex_.is_empty()
    checks.append({"name": "nonempty", "ok": nonempty, "detail": ""})
    pi1 = None
    if nonempty and k >= 0:
        ncomp = len(complex_.components())
        checks.append({"name": "connected", "ok": ncomp == 1,
                       "detail": f"{ncomp} components"})
        if ncomp == 1 and k >= 1:
            chain = simplicial_chain_complex(complex_, top=k + 1)
            res = homology(chain)
            for i in range(1, k + 1):
                if i < len(res):
                    betti = res[i]["betti"]
                    torsion = res[i]["torsion"]
                else:
                    betti, torsion = 0, []
                ok = betti == 0 and not torsion
                checks.append({
                    "name": f"H{i}_zero", "ok": ok,
                    "detail": f"betti={betti} torsion={torsion}"})
            pi1 = pi1_rule(complex_, res)
            checks.append({"name": "pi1", "ok": pi1 != "nontrivial",
                           "detail": pi1})
    elif k >= 0:
        checks.append({"name": "connected", "ok": False, "detail": "empty"})

    failed = any(not c["ok"] for c in checks)
    if failed:
        verdict = "fail"
    elif k >= 1 and pi1 == "inconclusive":
        verdict = "inconclusive"
    else:
        verdict = "consistent"
    return {"k": k, "verdict": verdict, "checks": checks, "pi1": pi1}


# empty, single-vertex, disconnected and low-dimensional complexes, beside
# the larger connected ones; k = 2 lies above the dimension of many
ANY_COMPLEX = st.one_of(connected_complexes(), st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=4),
    max_size=6).map(SimplicialComplex))


class TestReportsAgainstParent:
    """The report builders equal verbatim copies of their earlier forms,
    with pi1 by pi1_rule."""

    @given(ANY_COMPLEX)
    @settings(max_examples=300, deadline=None)
    @example(SimplicialComplex([]))
    @example(SimplicialComplex([fs(1)]))
    @example(SimplicialComplex([fs(1, 2), fs(3)]))
    @example(SimplicialComplex.boundary_sphere(range(4)))
    def test_connectivity_evidence(self, k):
        for degree in (-1, 0, 1, 2):
            assert connectivity_evidence(k, degree) == \
                parent_connectivity_evidence(k, degree)

    @given(ANY_COMPLEX)
    @settings(max_examples=300, deadline=None)
    @example(SimplicialComplex([]))
    @example(SimplicialComplex([fs(1)]))
    @example(SimplicialComplex([fs(1, 2), fs(3)]))
    def test_homology_report(self, k):
        for with_pi1 in (False, True):
            assert homology_report(k, with_pi1) == \
                parent_homology_report(k, with_pi1)
        # connected from H0 is one union-find class
        assert homology_report(k)["connected"] == (
            not k.is_empty() and k.is_connected())

    def test_empty_complex_checks(self):
        rep = connectivity_evidence(SimplicialComplex([]), 1)
        assert rep == {"k": 1, "verdict": "fail", "pi1": None, "checks": [
            {"name": "nonempty", "ok": False, "detail": ""},
            {"name": "connected", "ok": False, "detail": "empty"}]}


class TestEvidenceDepth:
    """The evidence is homology_report through degree k: one chain through
    degree max(k + 1, 1), none at k = -1 or on the empty complex, and the
    truncated report is the head of the full one."""

    @pytest.mark.parametrize("complex_", [
        cone(m_linear(6), "apex"), m_linear(4), m_linear(9), dunce_hat(),
        SimplicialComplex([fs(1)]), SimplicialComplex.boundary_sphere(
            range(5)), SimplicialComplex([])])
    def test_one_chain_through_degree_k_plus_one(self, complex_,
                                                 monkeypatch):
        tops = []
        real = homology_module.simplicial_chain_complex

        def recorded(complex_, top=None):
            tops.append(top)
            return real(complex_, top)

        monkeypatch.setattr(homology_module, "simplicial_chain_complex",
                            recorded)
        for k in range(-1, 4):
            tops.clear()
            connectivity_evidence(complex_, k)
            want = [max(k + 1, 1)] if k >= 0 and not complex_.is_empty() \
                else []
            assert tops == want

    @given(ANY_COMPLEX, st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    @example(dunce_hat(), 1)
    @example(SimplicialComplex.boundary_sphere(range(4)), 1)
    @example(SimplicialComplex([fs(1)]), 0)
    @example(SimplicialComplex([]), 1)
    def test_truncated_report_is_the_head_of_the_full_one(self, k, through):
        with_pi1 = through >= 1
        full = homology_report(k, with_pi1)
        got = homology_report(k, with_pi1, _through=through)
        for key in ("betti", "betti_reduced", "torsion"):
            assert got[key] == full[key][:through + 1]
        assert {key: got[key] for key in ("nonempty", "connected", "pi1")} \
            == {key: full[key] for key in ("nonempty", "connected", "pi1")}


def elimination_connectivity_evidence(complex_, k):
    """connectivity_evidence as it stood before the coreduction matching,
    with H0 and H1 by elimination, kept verbatim but for pi1_rule in place
    of the Tietze loop and the budget check it made."""
    if k < -1:
        raise ValueError(f"need k >= -1, got {k}")
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": ok, "detail": detail})
        return ok

    pi1 = None
    nonempty = check("nonempty", not complex_.is_empty())
    if k >= 0:
        ncomp = 0
        if nonempty:  # connectedness is read from H0
            chain = simplicial_chain_complex(complex_, top=max(k + 1, 1))
            res = homology(chain)
            ncomp = res[0]["betti"]
        if check("connected", ncomp == 1,
                 f"{ncomp} components" if nonempty else "empty") and k >= 1:
            res += [{"betti": 0, "torsion": []}] * (k + 1 - len(res))
            for i in range(1, k + 1):
                betti, torsion = res[i]["betti"], res[i]["torsion"]
                check(f"H{i}_zero", betti == 0 and not torsion,
                      f"betti={betti} torsion={torsion}")
            pi1 = pi1_rule(complex_, res)
            check("pi1", pi1 != "nontrivial", pi1)

    if any(not c["ok"] for c in checks):
        verdict = "fail"
    elif pi1 == "inconclusive":
        verdict = "inconclusive"
    else:
        verdict = "consistent"
    return {"k": k, "verdict": verdict, "checks": checks, "pi1": pi1}


def benchmark_links(seed, size=2000):
    """The ascending links of the links benchmark at seed, drawn as it
    draws them."""
    rng = random.Random(f"links:{seed}")
    for _ in range(size):
        feet = rng.randint(2, 9)
        x = random_vertex(rng, feet, rng.randint(0, 12))
        spec = MorseSpec(rng.choice(LINK_CHARACTERS), rng.choice((1, -1)),
                         (2, feet + 3))
        yield ascending_link(x, spec)


class TestEvidenceAgainstElimination:
    """The matching changes no homology: the evidence equals its form
    before the matching, with pi1 by pi1_rule, dict for dict."""

    @given(ANY_COMPLEX)
    @settings(max_examples=300, deadline=None)
    @example(SimplicialComplex([]))
    @example(SimplicialComplex([fs(1)]))
    @example(SimplicialComplex([fs(1, 2), fs(3)]))
    @example(SimplicialComplex([fs(1, 2), fs(2, 3), fs(1, 3)]))
    @example(dunce_hat())
    def test_random_complexes(self, k):
        for degree in range(-1, 4):
            assert connectivity_evidence(k, degree) == \
                elimination_connectivity_evidence(k, degree)

    @given(st.integers(0, 2 ** 32), st.integers(2, 9), st.integers(0, 12),
           st.sampled_from(LINK_CHARACTERS), st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_links(self, seed, feet, carets, char, sec):
        x = random_vertex(random.Random(seed), feet, carets)
        spec = MorseSpec(char, sec, (2, feet + 3))
        for link in (ascending_link(x, spec), descending_link(x, spec)):
            for degree in range(-1, 4):
                assert connectivity_evidence(link, degree) == \
                    elimination_connectivity_evidence(link, degree)

    def test_every_benchmark_link_is_proved(self):
        for link in benchmark_links(1):
            assert proved(link)
            assert connectivity_evidence(link, 1) == \
                elimination_connectivity_evidence(link, 1)


def matched_cells(chain):
    """_critical_cells' counts and pairs, each cell as (degree, index)."""
    critical, pairs = homology_module._critical_cells(chain)
    starts = [sum(chain.dims[:d]) for d in range(len(critical))]

    def cell(x):
        d = bisect_right(starts, x) - 1
        return d, x - starts[d]

    return critical, [(cell(f), cell(q)) for f, q in pairs]


def assert_acyclic(chain, pairs):
    """No directed cycle in the Hasse diagram of chain, its edges pointing
    from a cell to its faces, once the matched edges are reversed."""
    up = set(pairs)
    successors = defaultdict(list)
    indegree = Counter()
    for d, columns in enumerate(chain.boundaries):
        for q, col in enumerate(columns):
            for f in col:
                edge = (d, f), (d + 1, q)
                a, b = edge if edge in up else edge[::-1]
                successors[a].append(b)
                indegree[b] += 1
    order = [(d, i) for d, n in enumerate(chain.dims) for i in range(n)
             if not indegree[d, i]]
    for a in order:  # Kahn's sort; the loop reads what it appends
        for b in successors[a]:
            indegree[b] -= 1
            if not indegree[b]:
                order.append(b)
    assert len(order) == sum(chain.dims)


def assert_matching_sound(chain):
    """_critical_cells on any integer chain, checked by definitions that
    do not share its code: a matching of faces with entry +-1,
    acyclic, whose critical counts give the Euler characteristic and bound
    the Betti numbers of the all-degree elimination from above (the weak
    Morse inequalities). Returns the critical counts."""
    critical, pairs = matched_cells(chain)
    matched = [cell for pair in pairs for cell in pair]
    assert len(set(matched)) == len(matched)
    for (d, f), (e, q) in pairs:
        assert e == d + 1 and chain.boundaries[d][q].get(f) in (1, -1)
    assert critical == [n - sum(1 for e, _ in matched if e == d)
                        for d, n in enumerate(chain.dims)]
    assert_acyclic(chain, pairs)
    assert sum((-1) ** d * c for d, c in enumerate(critical)) == \
        sum((-1) ** d * n for d, n in enumerate(chain.dims))
    res = elimination_homology(chain)
    assert all(c >= r["betti"] for c, r in zip(critical, res))
    return critical


class TestCoreductionMatching:
    """The matching behind the pi1 proof on 2-skeletons: sound (see
    assert_matching_sound), and never a proof where the reference Tietze
    loop does not reach "trivial"."""

    @staticmethod
    def assert_sound(k):
        chain = simplicial_chain_complex(k, top=2)
        critical = assert_matching_sound(chain)
        if critical[:2] in ([1], [1, 0]):
            res = homology(chain)
            assert _reference_pi1_verdict(chain, res, 20000) == "trivial"
        return critical

    @given(connected_complexes())
    @settings(max_examples=300, deadline=None)
    @example(SimplicialComplex.boundary_sphere(range(4)))
    @example(SimplicialComplex([fs(1, 2), fs(2, 3), fs(1, 3)]))
    def test_random_complexes(self, k):
        self.assert_sound(k)

    @given(st.integers(0, 2 ** 32), st.integers(2, 9), st.integers(0, 12),
           st.sampled_from(LINK_CHARACTERS), st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_links(self, seed, feet, carets, char, sec):
        x = random_vertex(random.Random(seed), feet, carets)
        spec = MorseSpec(char, sec, (2, feet + 3))
        for link in (ascending_link(x, spec), descending_link(x, spec)):
            self.assert_sound(link)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matching_complexes(self, n):
        self.assert_sound(m_linear(n))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_cones(self, n):
        assert self.assert_sound(cone(m_linear(n), "apex"))[:2] == [1, 0]

    @pytest.mark.parametrize("n_gens, relators", [
        (1, [[1, 1, 1]]),                         # <a | a^3>
        (1, [[-1, -1, -1]]),                      # <a | a^-3>
        (2, [[-1], [-2, -2, -2]]),                # <a, b | a^-1, b^-3>
        (2, [[-1, -1, -2, -1], [2], [2]]),        # <a, c | a^-2c^-1a^-1, c, c>
        (2, [[1, 1, 1, -2, -2, -2, -2, -2],       # binary icosahedral
             [1, 2, 1, 2, -1, -1, -1]]),
    ])
    def test_presentation_complexes(self, n_gens, relators):
        # none is simply connected, so none may be proved
        assert self.assert_sound(presentation_complex(n_gens, relators))[1]

    def test_dunce_hat(self):
        # contractible but not collapsible: no proof, so pi1 is left open
        assert self.assert_sound(dunce_hat()) == [1, 1, 1]


# ---------------------------------------------------------------------------
# trusted builds and clearing

# complexes up to dimension 5, so that every top up to 5 cuts some of them
UP_TO_5_DIMENSIONAL = st.one_of(connected_complexes(), st.lists(
    st.sets(st.integers(0, 9), min_size=1, max_size=6),
    max_size=8).map(SimplicialComplex))

CHI = Character(1, 0)


def small_fragments():
    """Fragments explored in several bands, from the identity and from
    random vertices."""
    rng = random.Random(17)
    out = [explore([parse_diagram("[(*,*)]/[*,*]")], (2, 5),
                   characters=(CHI,), max_vertices=90)]
    for band in [(1, 3), (2, 4), (2, 6), (3, 5), (3, 7)]:
        seeds = [random_vertex(rng, rng.randint(*band), rng.randint(0, 5))
                 for _ in range(2)]
        out.append(explore(seeds, band, characters=(CHI,),
                           max_vertices=rng.choice([25, 60, 150])))
    return out


FRAGMENTS = small_fragments()


def quotients_behind(monkeypatch, run):
    """The chain complexes that run() hands to homology()."""
    seen = []

    def record(chain):
        seen.append(chain)
        return real(chain)

    real = homology_module.homology
    monkeypatch.setattr(homology_module, "homology", record)
    run()
    monkeypatch.undo()
    return seen


def pair_quotients(monkeypatch, frag):
    """The quotients behind fragment_pair_homology for the sublevel sets
    of CHI at its three lowest values."""
    vals = frag.chi_values[str(CHI)]
    out = []
    for cut in sorted(set(vals))[:3]:
        seen = quotients_behind(monkeypatch, lambda: fragment_pair_homology(
            frag, lambda j: vals[j] <= cut))
        assert len(seen) == 1
        out += seen
    return out


def assert_public_build_accepts(cc):
    ChainComplex(cc.dims, cc.boundaries)  # raises on a malformed build


class TestTrustedBuilders:
    """simplicial_chain_complex, cubical_chain_complex and
    quotient_chain_complex skip ChainComplex's format scan and d d = 0
    check; what they build must pass both."""

    @given(UP_TO_5_DIMENSIONAL)
    @settings(max_examples=200, deadline=None)
    @example(RP2)
    def test_simplicial(self, k):
        for top in (None, 0, 1, 2, 3, 4, 5):
            assert_public_build_accepts(simplicial_chain_complex(k, top))

    @pytest.mark.parametrize("i", range(len(FRAGMENTS)))
    def test_cubical(self, i):
        assert_public_build_accepts(cubical_chain_complex(FRAGMENTS[i]))

    @pytest.mark.parametrize("i", range(len(FRAGMENTS)))
    def test_fragment_pair_quotients(self, monkeypatch, i):
        for chain in pair_quotients(monkeypatch, FRAGMENTS[i]):
            assert_public_build_accepts(chain)

    @given(ANY_COMPLEX, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_relative_quotients(self, k, seed):
        rng = random.Random(seed)
        sub = SimplicialComplex([f for f in k.facets if rng.random() < 0.5])
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = quotients_behind(monkeypatch,
                                    lambda: relative_homology(k, sub))
        assert len(seen) == 1
        assert_public_build_accepts(seen[0])


def parent_faces(fragment, base, word, p):
    """Fragment.faces as it stood before it listed every axis at once:
    the back and front faces across axis p alone, kept verbatim."""
    return ((base, word[:p - 1] + "I" + word[p:]),
            (fragment.moves[base]["s", p], word[:p - 1] + "II" + word[p:]))


def parent_cubical_chain_complex(fragment):
    """cubical_chain_complex as it stood before faces came all at once,
    kept verbatim: one faces call per axis, entries summed per row, then
    zeros filtered out."""
    cells = [list(level) for _, level in groupby(
        fragment.cells(), key=lambda cell: cell[1].count("L"))] or [[]]
    boundaries = []
    for k in range(1, len(cells)):
        index = {cell: i for i, cell in enumerate(cells[k - 1])}
        columns = []
        for base, word in cells[k]:
            col: dict = {}
            axes = [i + 1 for i, ch in enumerate(word) if ch == "L"]
            for j, p in enumerate(axes, 1):
                sign = (-1) ** j
                back, front = parent_faces(fragment, base, word, p)
                for face, value in ((front, sign), (back, -sign)):
                    row = index[face]
                    col[row] = col.get(row, 0) + value
            columns.append({i: v for i, v in col.items() if v})
        boundaries.append(columns)
    return [len(c) for c in cells], boundaries, cells


def corner_pair_quotient(fragment, in_sub):
    """The quotient behind fragment_pair_homology by its definition: a
    cell is in the subcomplex when all its corners are."""
    chain = cubical_chain_complex(fragment)
    return quotient_chain_complex(chain, [
        {i for i, cell in enumerate(level)
         if all(map(in_sub, fragment.corners(*cell)))}
        for level in chain.cells])


ONE_VERTEX = explore([parse_diagram("[(*,*)]/[*,*]")], (2, 4),
                     max_vertices=1)
BUILDER_FRAGMENTS = FRAGMENTS + [Fragment([], (2, 4)), ONE_VERTEX]


def column_items(boundaries):
    return [[list(col.items()) for col in columns] for columns in boundaries]


class TestCubicalAgainstParent:
    """cubical_chain_complex writes each column's 2k entries straight from
    one Fragment.faces call per cell; it must equal the per-axis builder
    that summed and filtered, entry order included."""

    @pytest.mark.parametrize("i", range(len(BUILDER_FRAGMENTS)))
    def test_equals_parent_builder(self, i):
        frag = BUILDER_FRAGMENTS[i]
        cc = cubical_chain_complex(frag)
        dims, boundaries, cells = parent_cubical_chain_complex(frag)
        assert cc.dims == dims and cc.cells == cells
        assert column_items(cc.boundaries) == column_items(boundaries)

    def test_small_fragments_are_covered(self):
        assert cubical_chain_complex(BUILDER_FRAGMENTS[-2]).dims == [0]
        assert cubical_chain_complex(BUILDER_FRAGMENTS[-1]).dims == [1]
        assert {len(cubical_chain_complex(f).dims) for f in FRAGMENTS} >= \
            {3, 4}

    @pytest.mark.parametrize("i", range(len(BUILDER_FRAGMENTS)))
    def test_pair_equals_corner_definition(self, monkeypatch, i):
        frag = BUILDER_FRAGMENTS[i]
        n = len(frag.vertices)
        rng = random.Random(i)
        chosen = {j for j in range(n) if rng.random() < 0.6}
        chi0 = frag.chi0_values
        cut = sorted(chi0)[n // 2] if n else 0
        for in_sub in (lambda j: True, lambda j: False, chosen.__contains__,
                       lambda j: chi0[j] <= cut):
            seen = quotients_behind(monkeypatch, lambda: fragment_pair_homology(
                frag, in_sub))
            want = corner_pair_quotient(frag, in_sub)
            assert len(seen) == 1
            assert seen[0].dims == want.dims
            assert column_items(seen[0].boundaries) == \
                column_items(want.boundaries)
            assert fragment_pair_homology(frag, in_sub) == homology(want)

    def test_in_sub_is_called_once_per_vertex(self):
        frag = FRAGMENTS[0]
        calls = []
        fragment_pair_homology(frag, lambda j: calls.append(j) or j % 2)
        assert calls == list(range(len(frag.vertices)))


def _dense(columns, rows) -> list:
    """The given rows, as dense lists, of a matrix of sparse columns."""
    return [[col.get(i, 0) for col in columns] for i in rows]


def rank_and_torsion(columns, n_rows) -> tuple:
    """Rank, invariant factors > 1 and unit pivot rows of a sparse integer
    matrix: unit pivots are eliminated sparsest row first, each leaving a
    1 on the Smith diagonal; the leftover block goes to smith_normal_form.

    The sparse elimination that homology() ran before the Morse complex,
    kept verbatim as the one elimination reference."""
    cols = [dict(c) for c in columns]
    rows = [set() for _ in range(n_rows)]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    heap = [(len(r), i) for i, r in enumerate(rows) if r]
    heapq.heapify(heap)
    pivots = set()
    while heap:
        size, r = heapq.heappop(heap)
        row = rows[r]
        if size != len(row):
            continue  # stale entry; the row was pushed again when it changed
        c, best = None, n_rows + 1  # the sparsest unit column, first on ties
        for j in row:
            if cols[j][r] in (1, -1) and len(cols[j]) < best:
                c, best = j, len(cols[j])
        if c is None:
            continue  # pushed again when a later pivot changes the row
        pivot = cols[c]
        p = pivot[r]
        for j in row:
            if j == c:
                continue
            col = cols[j]
            f = col[r] * p
            for i, v in pivot.items():
                w = col.get(i, 0) - f * v
                if w:
                    if i not in col:
                        rows[i].add(j)
                    col[i] = w
                else:
                    del col[i]
                    if i != r:
                        rows[i].discard(j)
        row.clear()
        cols[c] = None
        pivots.add(r)
        for i in pivot:
            if i != r:
                rows[i].discard(c)
                if rows[i]:  # an empty row is outside every column for good
                    heapq.heappush(heap, (len(rows[i]), i))
    left = [col for col in cols if col]
    if not left:
        return len(pivots), [], pivots
    diag = smith_normal_form(_dense(left, sorted({i for col in left
                                                  for i in col})))
    return len(pivots) + len(diag), [d for d in diag if d > 1], pivots


def unclearing_homology(chain):
    """homology() as it stood before clearing, kept verbatim as the
    reference: every boundary reduced on its own."""
    n = len(chain.dims)
    reduced = [rank_and_torsion(columns, chain.dims[k])[:2]
               for k, columns in enumerate(chain.boundaries)]
    out = []
    for k in range(n):
        r_in = reduced[k - 1][0] if k >= 1 else 0
        r_out, torsion = reduced[k] if k < n - 1 else (0, [])
        betti = chain.dims[k] - r_in - r_out
        out.append({"betti": betti, "torsion": torsion})
    return out


def scrambled_complex(rng, pieces):
    """(chain, homology) of a direct sum of elementary complexes under
    random unimodular changes of basis. pieces lists (k, d): d = 0 is a
    free Z in degree k, d != 0 a Z --d--> Z from degree k + 1 to k, which
    adds Z/|d| to H_k when |d| > 1. The result has non-unit entries
    everywhere and known homology."""
    n = 1 + max(k + (d != 0) for k, d in pieces)
    dims = [0] * n
    cells = []
    for k, d in pieces:
        cells.append((k, dims[k]))
        dims[k] += 1
        if d:
            cells.append((k + 1, dims[k + 1]))
            dims[k + 1] += 1
    # dense[k] is the matrix of d_(k+1): dims[k] rows, dims[k + 1] columns
    dense = [[[0] * dims[k + 1] for _ in range(dims[k])] for k in range(n - 1)]
    at = iter(cells)
    for k, d in pieces:
        _, row = next(at)
        if d:
            _, col = next(at)
            dense[k][row][col] = d
    for _ in range(2 * sum(dims)):
        k = rng.randrange(n)
        if dims[k] < 2:
            continue
        i, j = rng.sample(range(dims[k]), 2)
        c = rng.choice([-2, -1, 1, 1])
        # new basis in degree k: column i of d_k gains c * column j, and
        # row j of d_(k+1) loses c * row i, so d d = 0 still holds
        if k >= 1:
            for row in dense[k - 1]:
                row[i] += c * row[j]
        if k < n - 1:
            dense[k][j] = [a - c * b for a, b in zip(dense[k][j], dense[k][i])]
    boundaries = [[{i: m[i][j] for i in range(len(m)) if m[i][j]}
                   for j in range(dims[k + 1])] for k, m in enumerate(dense)]
    expected = []
    for k in range(n):
        orders = [abs(d) for j, d in pieces if j == k and abs(d) > 1]
        diag = smith_normal_form([[o if a == b else 0 for b in range(
            len(orders))] for a, o in enumerate(orders)])
        expected.append({
            "betti": sum(1 for j, d in pieces if j == k and d == 0),
            "torsion": [x for x in diag if x > 1]})
    return ChainComplex(dims, boundaries), expected


# a seed and the pieces of scrambled_complex
SCRAMBLED = (st.integers(0, 2 ** 32 - 1), st.lists(st.tuples(
    st.integers(0, 3), st.sampled_from([0, 1, -1, 2, -2, 3, 4, 6])),
    min_size=1, max_size=8))


class TestClearing:
    """The inputs that held homology()'s former clearing step (dropping
    the columns of d_k at the unit pivot rows of d_(k+1)): the Morse
    complex must agree with reducing every boundary on its own."""

    @staticmethod
    def assert_same(chain):
        got = homology(chain)
        assert got == unclearing_homology(chain)
        return got

    @given(UP_TO_5_DIMENSIONAL)
    @settings(max_examples=200, deadline=None)
    def test_random_complexes(self, k):
        for top in (None, 1, 2):
            self.assert_same(simplicial_chain_complex(k, top))

    @given(*SCRAMBLED)
    @settings(max_examples=200, deadline=None)
    def test_scrambled_complexes_with_torsion(self, seed, pieces):
        chain, expected = scrambled_complex(random.Random(seed), pieces)
        assert self.assert_same(chain) == expected

    @pytest.mark.parametrize("name, k, torsion", [
        ("RP2", RP2, [[], [2], []]),
        ("suspended RP2", join(RP2, SimplicialComplex([fs("n"), fs("s")])),
         [[], [], [2], []]),
        ("RP2 join RP2", join(RP2, SimplicialComplex(
            [fs(*(-v for v in f)) for f in RP2.facets])),
         [[], [], [], [2], [2], []]),
        ("<a | a^3>", presentation_complex(1, [[1, 1, 1]]), [[], [3], []]),
        ("<a, b | a^2, b^3>", presentation_complex(2, [[1, 1], [2, 2, 2]]),
         [[], [6], []]),
        ("dunce hat", dunce_hat(), [[], [], []]),
    ])
    def test_torsion(self, name, k, torsion):
        assert [h["torsion"] for h in self.assert_same(
            simplicial_chain_complex(k))] == torsion

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matching_complexes(self, n):
        self.assert_same(simplicial_chain_complex(m_linear(n)))

    @pytest.mark.parametrize("i", range(len(FRAGMENTS)))
    def test_cubical_and_relative_fragments(self, monkeypatch, i):
        self.assert_same(cubical_chain_complex(FRAGMENTS[i]))
        for chain in pair_quotients(monkeypatch, FRAGMENTS[i]):
            self.assert_same(chain)

    def test_only_unit_pivot_rows_are_cleared(self):
        # d2 has the unit entry -1 at row 1 and the non-unit 2 at row 0;
        # clearing column 0 of d1 instead of column 1, or pairing the
        # triangle with edge 0, would leave {0: 2} and report Z/2 in H0
        chain = ChainComplex([1, 2, 1], [[{0: 1}, {0: 2}], [{0: 2, 1: -1}]])
        assert self.assert_same(chain) == [{"betti": 0, "torsion": []}] * 3


# ---------------------------------------------------------------------------
# homology read off the coreduction matching

def elimination_homology(chain):
    """homology() as it stood before it read unit chains off the matching,
    kept verbatim as the reference: every boundary reduced, top degree
    down, with clearing."""
    n = len(chain.dims)
    reduced = [None] * (n - 1)
    cleared = set()
    for k in range(n - 2, -1, -1):
        columns = chain.boundaries[k]
        if cleared:
            columns = [col for j, col in enumerate(columns)
                       if j not in cleared]
        rank, torsion, cleared = rank_and_torsion(columns, chain.dims[k])
        reduced[k] = rank, torsion
    out = []
    for k in range(n):
        r_in = reduced[k - 1][0] if k >= 1 else 0
        r_out, torsion = reduced[k] if k < n - 1 else (0, [])
        betti = chain.dims[k] - r_in - r_out
        out.append({"betti": betti, "torsion": torsion})
    total = sum((-1) ** k * chain.dims[k] for k in range(n))
    alt = sum((-1) ** k * out[k]["betti"] for k in range(n))
    if total != alt:
        raise AssertionError("Euler characteristic mismatch in homology")
    return out


def dense_complex(nv, nt, seed) -> SimplicialComplex:
    """nt distinct random triangles on nv vertices: triples drawn until
    that many are distinct."""
    rng = random.Random(seed)
    triangles = set()
    while len(triangles) < nt:
        triangles.add(tuple(sorted(rng.sample(range(nv), 3))))
    return SimplicialComplex(triangles)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once it has run the given seconds, so
    a test fails rather than hang the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def explored_fragments(draw):
    """Fragments explored from one or two random vertices in a random band,
    truncated anywhere from 1 to 150 vertices."""
    band = draw(st.sampled_from([(1, 3), (2, 4), (2, 5), (2, 6), (3, 5),
                                 (3, 7)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    seeds = [random_vertex(rng, rng.randint(*band), rng.randint(0, 5))
             for _ in range(draw(st.integers(1, 2)))]
    return explore(seeds, band, max_vertices=draw(st.integers(1, 150)))


def sublevel_quotients(frag):
    """The quotients of the fragment by the full subcomplexes on its
    vertices with chi0 at most each of its three lowest values."""
    chi0 = frag.chi0_values
    return [corner_pair_quotient(frag, lambda j, cut=cut: chi0[j] <= cut)
            for cut in sorted(set(chi0))[:3]]


@functools.lru_cache(maxsize=None)
def homology_workload():
    """The fragments of the homology benchmark at seed 1, drawn as it draws
    them, and its chi0 sublevel test on the first."""
    rng = random.Random("homology:1")
    frags = [explore([random_vertex(rng, band[0], 8)], band,
                     max_vertices=300) for band in ((2, 4), (2, 5), (3, 6))]
    chi0 = frags[0].chi0_values
    cut = sorted(chi0)[len(chi0) // 2]
    return frags, lambda j: chi0[j] <= cut


class TestMatchingOnEveryChain:
    """_critical_cells runs on every degree of simplicial, cubical and
    quotient chains, and is sound on each (see assert_matching_sound)."""

    @given(UP_TO_5_DIMENSIONAL)
    @settings(max_examples=200, deadline=None)
    @example(RP2)
    @example(dunce_hat())
    def test_simplicial(self, k):
        assert_matching_sound(simplicial_chain_complex(k))

    @given(explored_fragments())
    @settings(max_examples=40, deadline=None)
    def test_cubical_and_sublevel_quotients(self, frag):
        assert_matching_sound(cubical_chain_complex(frag))
        for chain in sublevel_quotients(frag):
            assert_matching_sound(chain)

    @given(UP_TO_5_DIMENSIONAL, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_relative_quotients(self, k, seed):
        rng = random.Random(seed)
        sub = SimplicialComplex([f for f in k.facets if rng.random() < 0.5])
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = quotients_behind(monkeypatch,
                                    lambda: relative_homology(k, sub))
        assert_matching_sound(seen[0])

    def test_benchmark_chains(self):
        frags, in_sub = homology_workload()
        counts = [assert_matching_sound(cubical_chain_complex(f))
                  for f in frags]
        counts.append(assert_matching_sound(
            corner_pair_quotient(frags[0], in_sub)))
        counts += [assert_matching_sound(simplicial_chain_complex(
            m_linear(n))) for n in (13, 14)]
        assert counts == [[1, 0, 0], [1, 4, 0], [1, 0, 0, 0], [0, 6, 0],
                          [1, 0, 0, 2, 1, 0], [1, 0, 0, 0, 0, 0, 0]]

    @given(*SCRAMBLED)
    @settings(max_examples=200, deadline=None)
    def test_scrambled_complexes(self, seed, pieces):
        assert_matching_sound(scrambled_complex(random.Random(seed), pieces)[0])

    @pytest.mark.parametrize("dims, boundaries, critical", [
        # Z --2--> Z and Z --(-3)--> Z: nothing to pair
        ([1, 1], [[{0: 2}]], [1, 1]),
        ([1, 1], [[{0: -3}]], [1, 1]),
        # the triangle waits at edge 1 (entry 2), then takes edge 0 at -1
        ([1, 2, 1], [[{0: 1}, {0: 2}], [{0: 2, 1: -1}]], [0, 0, 0]),
        # edge 0 (entry 2) waits while edge 1 takes the vertex
        ([1, 2], [[{0: 2}, {0: 1}]], [0, 1]),
        # edge 2 (entries 3, -3) waits and stays critical
        ([2, 3, 1], [[{0: -1, 1: 1}, {0: -1, 1: 1}, {0: 3, 1: -3}],
                     [{0: 1, 1: -1}]], [1, 1, 0]),
        # the Morse block of d_1 reads edge 1 through vertex 1's flow: Z/3
        ([2, 2], [[{0: -1, 1: 1}, {0: 1, 1: 2}]], [1, 1]),
        # a triangle on an empty edge at entry 3: Z/3 in H1
        ([1, 1, 1], [[{}], [{0: 3}]], [1, 1, 1]),
    ])
    def test_chains_with_entries_2_and_3(self, dims, boundaries, critical):
        chain = ChainComplex(dims, boundaries)
        assert assert_matching_sound(chain) == critical
        assert homology(chain) == elimination_homology(chain)

    def test_cells_with_one_face_start_the_queue(self):
        # the edge 1 - 0, and an edge at 1 whose other end was dropped: that
        # edge takes vertex 1 before the visit in order makes vertex 0
        # critical, which would leave [1, 1]
        chain = ChainComplex([2, 2], [[{0: -1, 1: 1}, {1: 1}]])
        assert homology_module._critical_cells(chain) == (
            [0, 0], [(1, 3), (0, 2)])


class TestHomologyOffTheMatching:
    """homology() reads every chain off the matching and reduces only the
    Morse blocks between two critical degrees; it must equal the
    all-degree elimination it replaced."""

    @staticmethod
    def assert_same(chain):
        got = homology(chain)
        assert got == elimination_homology(chain)
        return got

    @given(UP_TO_5_DIMENSIONAL)
    @settings(max_examples=200, deadline=None)
    @example(RP2)
    @example(dunce_hat())
    def test_random_complexes(self, k):
        for top in (None, 1, 2, 3):
            self.assert_same(simplicial_chain_complex(k, top))

    @given(explored_fragments())
    @settings(max_examples=40, deadline=None)
    def test_fragments_and_sublevel_quotients(self, frag):
        self.assert_same(cubical_chain_complex(frag))
        for chain in sublevel_quotients(frag):
            self.assert_same(chain)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matching_complexes(self, n):
        self.assert_same(simplicial_chain_complex(m_linear(n)))

    @pytest.mark.parametrize("k, torsion", [
        (RP2, [[], [2], []]),
        (dunce_hat(), [[], [], []]),
        (join(RP2, SimplicialComplex([fs("n"), fs("s")])),
         [[], [], [2], []]),
    ])
    def test_torsion(self, k, torsion):
        assert [h["torsion"] for h in self.assert_same(
            simplicial_chain_complex(k))] == torsion

    def test_reduces_only_between_two_critical_degrees(self, monkeypatch):
        # M(L_13) leaves critical cells [1, 0, 0, 2, 1, 0]: only the Morse
        # block of d_4, from one critical 4-cell to two 3-cells, is reduced
        chain = simplicial_chain_complex(m_linear(13))
        want = elimination_homology(chain)
        calls = []
        real = homology_module.smith_normal_form

        def counted(matrix):
            calls.append((len(matrix), len(matrix[0])))
            return real(matrix)

        monkeypatch.setattr(homology_module, "smith_normal_form", counted)
        assert homology(chain) == want
        assert calls == [(2, 1)]

    def test_one_critical_vertex_and_a_column_that_does_not_sum_to_0(self):
        # critical cells [1, 1], but the column 0 + 1 does not sum to 0:
        # d_1 has rank 2 and leaves Z/2 in H0
        chain = ChainComplex([2, 2], [[{0: -1, 1: 1}, {0: 1, 1: 1}]])
        assert homology_module._critical_cells(chain)[0] == [1, 1]
        assert self.assert_same(chain) == [
            {"betti": 0, "torsion": [2]}, {"betti": 0, "torsion": []}]

    def test_non_unit_entries_are_never_paired(self):
        # Z --2--> Z: matched as a pair, it would lose the Z/2 in H0
        chain = ChainComplex([1, 1], [[{0: 2}]])
        assert homology_module._critical_cells(chain) == ([1, 1], [])
        assert self.assert_same(chain) == [
            {"betti": 0, "torsion": [2]}, {"betti": 0, "torsion": []}]
        chain = ChainComplex([1, 2, 1], [[{0: 1}, {0: 2}], [{0: 2, 1: -1}]])
        assert self.assert_same(chain) == [{"betti": 0, "torsion": []}] * 3

    def test_benchmark_chains_need_no_elimination(self, monkeypatch):
        frags, in_sub = homology_workload()
        want = [elimination_homology(cubical_chain_complex(f))
                for f in frags]
        want.append(elimination_homology(corner_pair_quotient(
            frags[0], in_sub)))

        def elimination(matrix):
            raise AssertionError("a Morse block reached smith_normal_form")

        monkeypatch.setattr(homology_module, "smith_normal_form", elimination)
        got = [homology(cubical_chain_complex(f)) for f in frags]
        got.append(fragment_pair_homology(frags[0], in_sub))
        assert got == want
        assert [[h["betti"] for h in res] for res in got] == [
            [1, 0, 0], [1, 4, 0], [1, 0, 0, 0], [0, 6, 0]]
        report = homology_report(m_linear(14))
        assert report["betti_reduced"] == [0] * 7 and not any(
            report["torsion"])


class TestDenseRandomComplexes:
    """Dense random 2-complexes leave Morse blocks of hundreds of columns;
    the Smith normal form must settle them without its entries blowing
    up."""

    @pytest.mark.parametrize("nv, nt, seed, critical, betti", [
        (40, 900, 1, [1, 25, 210], [1, 1, 186]),
        (60, 3000, 14, [1, 28, 1328], [1, 0, 1300]),
    ])
    def test_groups(self, nv, nt, seed, critical, betti):
        chain = simplicial_chain_complex(dense_complex(nv, nt, seed))
        assert homology_module._critical_cells(chain)[0] == critical
        with time_limit(5):
            got = homology(chain)
        assert [h["betti"] for h in got] == betti
        assert not any(h["torsion"] for h in got)
        assert got == elimination_homology(chain)
