"""Integral homology, with two independent computation routes.

Boundary maps are stored as sparse columns: boundaries[k-1] holds one
{row: value} dict per degree-k cell, with no zero values. The primary
route reduces each boundary by unit-pivot elimination: pick a +-1 entry,
preferring the sparsest row, clear that row by unimodular column
operations and drop the pivot's row and column. Only the block left when
no unit entry remains goes through the dense Smith normal form, which
supplies the torsion (after Dumas, Saunders and Villard, JSC 32 (2001)).
The dense Smith normal form and the exact-rational rank route are the
independent oracles; the latter never looks at the elimination code.
Simplicial chain complexes come from SimplicialComplex objects; cubical
ones from explored fragments of the diagram cube complex, with a
staircase-triangulation subdivision available as a third cross-check.

pi1_trivial builds an edge-path presentation from a spanning tree and
simplifies it with a bounded Tietze loop; it answers "trivial",
"nontrivial" (only on homological evidence) or "inconclusive".
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from .complexes import SimplicialComplex, label_key
from .diagrams import split_foot


# ---------------------------------------------------------------------------
# integer linear algebra

def smith_normal_form(matrix) -> list:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    The input is a list of rows of integers and is not modified. The length
    of the result is the rank.
    """
    m = [[int(v) for v in row] for row in matrix]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    for row in m:
        if len(row) != nc:
            raise ValueError("ragged matrix")
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, nr):
            row = m[i]
            for j in range(t, nc):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        while True:
            clean = True
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        rt = m[t]
                        ri = m[i]
                        for j in range(t, nc):
                            ri[j] -= q * rt[j]
                    if m[i][t]:
                        # remainder beats the pivot; promote it
                        m[t], m[i] = m[i], m[t]
                        clean = False
            if not clean:
                continue
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        for i in range(t, nr):
                            m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        clean = False
            if clean:
                break
        t += 1
    diag = [abs(m[k][k]) for k in range(t)]
    # repair the divisibility chain: diag(a, b) ~ diag(gcd, lcm)
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            a, b = diag[k], diag[k + 1]
            if b % a:
                g = gcd(a, b)
                diag[k], diag[k + 1] = g, a * b // g
                changed = True
    return diag


def rank_over_rationals(matrix) -> int:
    """Row-echelon rank over exact rationals; independent of the SNF path."""
    m = [[Fraction(v) for v in row] for row in matrix]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    row = 0
    for col in range(nc):
        piv = None
        for i in range(row, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for i in range(nr):
            if i != row and m[i][col]:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[row])]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


# ---------------------------------------------------------------------------
# chain complexes

class ChainComplex:
    """Finitely generated free chain complex with integer boundaries.

    boundaries[k-1] (k >= 1) maps degree k to degree k-1. It is a list of
    dims[k] sparse columns, one per degree-k cell; each column is a
    {row: value} dict with rows in range(dims[k-1]) and no zero values.
    Construction verifies the format and that consecutive boundaries
    compose to zero, and raises ValueError otherwise.
    """

    __slots__ = ("dims", "boundaries", "cells")

    def __init__(self, dims, boundaries, cells=None):
        self.dims = list(dims)
        self.boundaries = boundaries
        self.cells = cells
        if len(boundaries) != max(0, len(self.dims) - 1):
            raise ValueError("need one boundary map per adjacent dimension pair")
        for k, columns in enumerate(boundaries, start=1):
            if len(columns) != self.dims[k]:
                raise ValueError(f"boundary {k} has wrong column count")
            n_rows = self.dims[k - 1]
            for col in columns:
                if not isinstance(col, dict):
                    raise ValueError(f"boundary {k} has a non-dict column")
                for row, value in col.items():
                    if not 0 <= row < n_rows or not value:
                        raise ValueError(
                            f"boundary {k} has entry {value} at row {row}")
        for k in range(len(boundaries) - 1):
            _check_composes_to_zero(boundaries[k], boundaries[k + 1], k)

    @property
    def top_dim(self) -> int:
        return len(self.dims) - 1


def _check_composes_to_zero(a, b, k):
    # a: columns of boundary k+1, b: columns of boundary k+2
    for col in b:
        image: dict = {}
        for row, value in col.items():
            for i, v in a[row].items():
                image[i] = image.get(i, 0) + value * v
        if any(image.values()):
            raise ValueError(
                f"boundary maps {k + 1} and {k + 2} do not compose to zero")


def _dense(columns, rows) -> list:
    """The given rows, as dense lists, of a matrix of sparse columns."""
    return [[col.get(i, 0) for col in columns] for i in rows]


def _rank_and_torsion(columns, n_rows) -> tuple:
    """Rank and invariant factors > 1 of a sparse integer matrix.

    Unit pivots are eliminated first, sparsest row first; each leaves a 1
    on the Smith diagonal. The leftover block goes to smith_normal_form.
    """
    cols = [dict(c) for c in columns]
    rows = [set() for _ in range(n_rows)]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    heap = [(len(r), i) for i, r in enumerate(rows) if r]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        size, r = heapq.heappop(heap)
        row = rows[r]
        if size != len(row):
            continue  # stale entry; the row was pushed again when it changed
        units = [j for j in row if cols[j][r] in (1, -1)]
        if not units:
            continue  # pushed again when a later pivot changes the row
        c = min(units, key=lambda j: len(cols[j]))
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
        pivots += 1
        for i in pivot:
            if i != r:
                rows[i].discard(c)
                heapq.heappush(heap, (len(rows[i]), i))
    left = [col for col in cols if col]
    if not left:
        return pivots, []
    diag = smith_normal_form(_dense(left, sorted({i for col in left
                                                  for i in col})))
    return pivots + len(diag), [d for d in diag if d > 1]


def homology(chain: ChainComplex) -> list:
    """Per-degree {"betti": int, "torsion": [int, ...]} by unit-pivot
    elimination and Smith normal form of the leftover block."""
    n = len(chain.dims)
    if n == 0:
        return []
    reduced = [_rank_and_torsion(columns, chain.dims[k])
               for k, columns in enumerate(chain.boundaries)]
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


def betti_via_rational_ranks(chain: ChainComplex) -> list:
    """Betti numbers only, through the rational-rank oracle."""
    n = len(chain.dims)
    ranks = [rank_over_rationals(_dense(columns, range(chain.dims[k])))
             for k, columns in enumerate(chain.boundaries)]
    out = []
    for k in range(n):
        r_in = ranks[k - 1] if k >= 1 else 0
        r_out = ranks[k] if k < n - 1 else 0
        out.append(chain.dims[k] - r_in - r_out)
    return out


def simplicial_chain_complex(complex_: SimplicialComplex,
                             top: int | None = None) -> ChainComplex:
    """Ordered-simplex chain complex; vertices sorted by canonical label order."""
    dim = complex_.dim()
    if top is not None:
        dim = min(dim, top)
    if dim < 0:
        return ChainComplex([], [], cells=[])
    cells = []
    for k in range(dim + 1):
        ordered = [tuple(sorted(s, key=label_key))
                   for s in complex_.k_simplices(k)]
        ordered.sort(key=lambda s: tuple(label_key(x) for x in s))
        cells.append(ordered)
    dims = [len(c) for c in cells]
    boundaries = []
    for k in range(1, dim + 1):
        index = {s: i for i, s in enumerate(cells[k - 1])}
        boundaries.append([
            {index[simplex[:i] + simplex[i + 1:]]: -1 if i % 2 else 1
             for i in range(len(simplex))}
            for simplex in cells[k]])
    return ChainComplex(dims, boundaries, cells=cells)


# ---------------------------------------------------------------------------
# cubical route for fragments

def _cube_positions(word: str) -> list:
    return [i + 1 for i, ch in enumerate(word) if ch == "L"]


def _front_word(word: str, p: int) -> str:
    # splitting foot p widens it into two feet carrying no further splits
    return word[:p - 1] + "II" + word[p:]


def _back_word(word: str, p: int) -> str:
    return word[:p - 1] + "I" + word[p:]


def cubical_chain_complex(fragment) -> ChainComplex:
    """Chain complex of the cube structure carried by a fragment.

    Degree-k cells are the fragment's recorded k-cubes (base, word); the two
    faces across axis j are the base-side cube (split j omitted) and the
    far-side cube based at the split neighbor.
    """
    by_dim: dict = {}
    for base, word in fragment.cubes:
        k = word.count("L")
        by_dim.setdefault(k, []).append((base, word))
    top = max(by_dim) if by_dim else 0
    cells: list = [[(i, "") for i in range(len(fragment.vertices))]]
    for k in range(1, top + 1):
        level = sorted(by_dim.get(k, []))
        cells.append(level)
    dims = [len(c) for c in cells]
    boundaries = []
    for k in range(1, top + 1):
        index = {}
        for i, (base, word) in enumerate(cells[k - 1]):
            if k - 1 == 0:
                index[(base, None)] = i
            else:
                index[(base, word)] = i
        columns = []
        for base, word in cells[k]:
            col: dict = {}
            positions = _cube_positions(word)
            for axis, p in enumerate(positions):
                sign = (-1) ** (axis + 1)
                front_base = fragment.step(base, ("s", p))
                if k == 1:
                    back_key = (base, None)
                    front_key = (front_base, None)
                else:
                    back_key = (base, _back_word(word, p))
                    front_key = (front_base, _front_word(word, p))
                for key, value in ((front_key, sign), (back_key, -sign)):
                    row = index[key]
                    col[row] = col.get(row, 0) + value
            columns.append({i: v for i, v in col.items() if v})
        boundaries.append(columns)
    return ChainComplex(dims, boundaries, cells=cells)


def subdivision_complex(fragment) -> SimplicialComplex:
    """Staircase triangulation of the fragment's cubes, on the same vertices.

    Each k-cube contributes the order complex of its corner lattice: one
    k-simplex per maximal chain of subsets of its split set. Restriction to
    a shared face triangulates it the same way, so the union is a complex
    with homology equal to the cubical one.
    """
    simplices: list = [[i] for i in range(len(fragment.vertices))]
    for base, word in fragment.cubes:
        positions = _cube_positions(word)
        chains: list = [(base, [base])]
        # grow chains one split at a time, in every insertion order
        def extend(vertex: int, taken: tuple, chain: list):
            if len(taken) == len(positions):
                simplices.append(chain)
                return
            for p in positions:
                if p in taken:
                    continue
                shift = sum(1 for q in taken if q < p)
                nxt = fragment.step(vertex, ("s", p + shift))
                extend(nxt, taken + (p,), chain + [nxt])
        extend(base, (), [base])
    return SimplicialComplex(simplices)


def quotient_chain_complex(chain: ChainComplex, dropped) -> ChainComplex:
    """Relative chain complex: drop the cells of a subcomplex.

    dropped[k] is a set of cell indices in degree k; it must be closed under
    the boundary (checked), i.e. describe an actual subcomplex.
    """
    n = len(chain.dims)
    keep = []
    for k in range(n):
        drop_k = dropped[k] if k < len(dropped) else set()
        keep.append([i for i in range(chain.dims[k]) if i not in drop_k])
    for k in range(1, n):
        drop_k = dropped[k] if k < len(dropped) else set()
        drop_prev = dropped[k - 1] if k - 1 < len(dropped) else set()
        columns = chain.boundaries[k - 1]
        for j in drop_k:
            if any(i not in drop_prev for i in columns[j]):
                raise ValueError(
                    "dropped cells are not closed under the boundary")
    dims = [len(k_) for k_ in keep]
    boundaries = []
    for k in range(1, n):
        columns = chain.boundaries[k - 1]
        row_index = {i: r for r, i in enumerate(keep[k - 1])}
        boundaries.append([
            {row_index[i]: v for i, v in columns[j].items() if i in row_index}
            for j in keep[k]])
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
        boundaries.pop()
    return ChainComplex(dims, boundaries)


def fragment_pair_homology(fragment, in_sub) -> list:
    """Homology of a fragment relative to a full cubical subcomplex.

    in_sub(vertex_index) picks the subcomplex vertices; a cube belongs to
    the subcomplex when all its corners do. The predicate must actually
    select a subcomplex (checked via boundary closure).
    """
    chain = cubical_chain_complex(fragment)
    dropped = []
    for k, level in enumerate(chain.cells):
        drop = set()
        for i, (base, word) in enumerate(level):
            if k == 0:
                if in_sub(base):
                    drop.add(i)
            elif all(in_sub(c) for c in fragment.corners(base, word)):
                drop.add(i)
        dropped.append(drop)
    return homology(quotient_chain_complex(chain, dropped))


def relative_homology(complex_: SimplicialComplex,
                      subcomplex: SimplicialComplex) -> list:
    """Homology of the pair (complex_, subcomplex)."""
    sub = subcomplex.simplices()
    for s in sub:
        if s not in complex_:
            raise ValueError("second argument is not a subcomplex")
    chain = simplicial_chain_complex(complex_)
    dropped = []
    for k, level in enumerate(chain.cells):
        dropped.append({i for i, s in enumerate(level)
                        if frozenset(s) in sub})
    return homology(quotient_chain_complex(chain, dropped))


# ---------------------------------------------------------------------------
# reports and fundamental-group evidence

def homology_report(complex_: SimplicialComplex, with_pi1: bool = False,
                    pi1_budget: int = 20000) -> dict:
    nonempty = not complex_.is_empty()
    comps = complex_.components() if nonempty else []
    res = homology(simplicial_chain_complex(complex_))
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
        report["pi1"] = pi1_trivial(complex_, budget=pi1_budget)
    return report


def pi1_trivial(complex_: SimplicialComplex, budget: int = 20000) -> str:
    """"trivial", "nontrivial" or "inconclusive" for the fundamental group.

    Requires a nonempty connected complex. "nontrivial" is only ever
    reported on homological evidence (nonzero H1); "trivial" only when the
    spanning-tree presentation collapses completely under Tietze moves
    within the budget.
    """
    if complex_.is_empty():
        raise ValueError("pi1 of the empty complex is undefined")
    if not complex_.is_connected():
        raise ValueError("pi1 needs a connected complex")

    chain = simplicial_chain_complex(complex_, top=2)
    res = homology(chain)
    if len(res) > 1 and (res[1]["betti"] > 0 or res[1]["torsion"]):
        return "nontrivial"

    verts = list(complex_.vertices)
    edges = [tuple(sorted(s, key=label_key))
             for s in complex_.k_simplices(1)]
    if not edges:
        return "trivial"
    adjacency: dict = {v: [] for v in verts}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    tree = set()
    seen = {verts[0]}
    queue = [verts[0]]
    while queue:
        u = queue.pop(0)
        for w in sorted(adjacency[u], key=label_key):
            if w not in seen:
                seen.add(w)
                tree.add(tuple(sorted((u, w), key=label_key)))
                queue.append(w)
    gens = {e: i + 1 for i, e in enumerate(e for e in edges if e not in tree)}

    def edge_word(u, v) -> list:
        e = tuple(sorted((u, v), key=label_key))
        g = gens.get(e)
        if g is None:
            return []
        return [g if e == (u, v) else -g]

    relators = []
    for s in complex_.k_simplices(2):
        a, b, c = sorted(s, key=label_key)
        word = edge_word(a, b) + edge_word(b, c) + edge_word(c, a)
        relators.append(word)

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


def connectivity_evidence(complex_: SimplicialComplex, k: int,
                          pi1_budget: int = 20000) -> dict:
    """Homology + pi1 evidence that the complex is k-connected.

    k = -1 asks only for nonemptiness, k = 0 adds connectivity, k >= 1 adds
    vanishing reduced homology through degree k and a pi1 verdict. The
    verdict is "consistent" when every obtainable check passes (pi1
    "trivial" included, when required), "fail" when any check fails, and
    "inconclusive" when the only gap is an unresolved pi1.
    """
    checks = []
    nonempty = not complex_.is_empty()
    checks.append({"name": "nonempty", "ok": nonempty, "detail": ""})
    pi1 = None
    if nonempty and k >= 0:
        ncomp = len(complex_.components())
        checks.append({"name": "connected", "ok": ncomp == 1,
                       "detail": f"{ncomp} components"})
        if ncomp == 1 and k >= 1:
            res = homology(simplicial_chain_complex(complex_, top=k + 1))
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
            pi1 = pi1_trivial(complex_, budget=pi1_budget)
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
