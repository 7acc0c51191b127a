"""Integral chain complexes, homology, and the dual-route rank oracle."""

import importlib
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

# the package re-exports homology(), which shadows the module attribute
homology_module = importlib.import_module("splitmerge.homology")


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

    def test_tiny_budget_inconclusive_or_resolves(self):
        k = SimplicialComplex.boundary_sphere(range(5))
        assert pi1_trivial(k, budget=1) in {"trivial", "inconclusive"}


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


class TestChainsFromFacets:
    @given(st.one_of(connected_complexes(), st.lists(
        st.sets(st.integers(0, 9), min_size=1, max_size=5),
        max_size=8).map(SimplicialComplex)),
        st.sampled_from([None, 0, 1, 2, 3]))
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
        cc = simplicial_chain_complex(SimplicialComplex.empty())
        assert (cc.dims, cc.boundaries, cc.cells) == ([], [], [])


class TestPi1FromReports:
    """Reports reuse their H1 for pi1; the verdict equals pi1_trivial's."""

    @given(connected_complexes(), st.sampled_from([1, 2, 5, 20000]))
    @settings(max_examples=200)
    @example(SimplicialComplex([fs(1, 2), fs(2, 3), fs(1, 3)]), 20000)
    @example(SimplicialComplex.boundary_sphere(range(5)), 1)
    def test_reports_agree_with_pi1_trivial(self, k, budget):
        want = pi1_trivial(k, budget=budget)
        assert connectivity_evidence(k, 1, pi1_budget=budget)["pi1"] == want
        assert connectivity_evidence(k, 2, pi1_budget=budget)["pi1"] == want
        rep = homology_report(k, with_pi1=True, pi1_budget=budget)
        assert rep["pi1"] == want

    def test_one_homology_pass_per_report(self, monkeypatch):
        calls = []
        real = homology_module.homology

        def counted(chain):
            calls.append(chain)
            return real(chain)

        monkeypatch.setattr(homology_module, "homology", counted)
        monkeypatch.setattr(homology_module, "pi1_trivial", None)
        k = cone(m_linear(6), "apex")
        assert connectivity_evidence(k, 1)["pi1"] == "trivial"
        assert homology_report(k, with_pi1=True)["pi1"] == "trivial"
        assert len(calls) == 2


def _reference_pi1_verdict(chain, res, budget):
    """The Tietze loop as it stood before kill and substitution became one
    move, kept verbatim so the meaning of one budget unit stays fixed."""
    if len(res) > 1 and (res[1]["betti"] > 0 or res[1]["torsion"]):
        return "nontrivial"
    if len(chain.cells) < 2:
        return "trivial"
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

    alive = set(gens.values())
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


PI1_BUDGETS = list(range(41)) + [100, 1000, 20000]


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


class TestTietzeStepAgainstReference:
    """_pi1_verdict gives the reference loop's verdict at every budget, so
    one budget unit (what long-interval-ascending --limit counts) keeps its
    meaning."""

    @staticmethod
    def verdicts(k, verdict):
        # an empty homology list skips the H1 shortcut, so the loop also
        # runs on presentations of groups with nonzero H1
        chain = simplicial_chain_complex(k, top=2)
        return [verdict(chain, res, b) for res in (homology(chain), [])
                for b in PI1_BUDGETS]

    def assert_same(self, k):
        assert (self.verdicts(k, homology_module._pi1_verdict)
                == self.verdicts(k, _reference_pi1_verdict))

    @given(connected_complexes())
    @settings(max_examples=300, deadline=None)
    @example(SimplicialComplex.boundary_sphere(range(6)))
    def test_random_complexes(self, k):
        self.assert_same(k)

    @pytest.mark.parametrize("n", range(5, 15))
    def test_matching_complexes(self, n):
        self.assert_same(m_linear(n))

    def test_cone(self):
        self.assert_same(cone(m_linear(6), "apex"))

    def test_dunce_hat(self):
        k = dunce_hat()
        assert homology_report(k)["betti_reduced"] == [0, 0, 0]
        assert pi1_trivial(k) == "trivial"
        self.assert_same(k)


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


def parent_homology_report(complex_, with_pi1=False, pi1_budget=20000):
    """homology_report as it stood when connectedness came from a
    union-find over the facets instead of from H0, kept verbatim."""
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
        report["pi1"] = homology_module._pi1_verdict(chain, res, pi1_budget)
    return report


def parent_connectivity_evidence(complex_, k, pi1_budget=20000):
    """connectivity_evidence as it stood with a branch per degree and per
    emptiness case, kept verbatim."""
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
            pi1 = homology_module._pi1_verdict(chain, res, pi1_budget)
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
    """The report builders equal verbatim copies of their earlier forms."""

    @given(ANY_COMPLEX, st.sampled_from([0, 3, 20000]))
    @settings(max_examples=300, deadline=None)
    @example(SimplicialComplex.empty(), 0)
    @example(SimplicialComplex([fs(1)]), 3)
    @example(SimplicialComplex([fs(1, 2), fs(3)]), 20000)
    @example(SimplicialComplex.boundary_sphere(range(4)), 3)
    def test_connectivity_evidence(self, k, budget):
        for degree in (-1, 0, 1, 2):
            assert connectivity_evidence(k, degree, pi1_budget=budget) == \
                parent_connectivity_evidence(k, degree, pi1_budget=budget)

    @given(ANY_COMPLEX, st.sampled_from([0, 3, 20000]))
    @settings(max_examples=300, deadline=None)
    @example(SimplicialComplex.empty(), 20000)
    @example(SimplicialComplex([fs(1)]), 20000)
    @example(SimplicialComplex([fs(1, 2), fs(3)]), 20000)
    def test_homology_report(self, k, budget):
        for with_pi1 in (False, True):
            assert homology_report(k, with_pi1, budget) == \
                parent_homology_report(k, with_pi1, budget)
        # connected from H0 is one union-find class
        assert homology_report(k)["connected"] == (
            not k.is_empty() and k.is_connected())

    def test_empty_complex_checks(self):
        rep = connectivity_evidence(SimplicialComplex.empty(), 1)
        assert rep == {"k": 1, "verdict": "fail", "pi1": None, "checks": [
            {"name": "nonempty", "ok": False, "detail": ""},
            {"name": "connected", "ok": False, "detail": "empty"}]}
