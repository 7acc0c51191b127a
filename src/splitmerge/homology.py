"""Integral homology and connectivity evidence for chain complexes.

boundaries[k-1] of a ChainComplex holds one sparse {row: value} column per
degree-k cell, with no zero values. homology() pairs cells along +-1
entries with a coreduction matching (_critical_cells) and hands the dense
Smith normal form only the Morse boundary between critical cells, where
two critical degrees meet (algebraic discrete Morse theory). That form
pivots on a least entry of the whole remaining block, clears the pivot's
row and column by floor quotients and deletes them once both are clear.
The dense Smith normal form of a whole boundary and the exact-rational
rank route are test oracles.

homology_report is the one connectivity report: connectivity_evidence and
pi1_trivial read their checks and pi1 off it. pi1 is "trivial" when the
matching leaves one critical vertex and no critical edge (Forman, Adv. Math.
134 (1998)), "nontrivial" on nonzero H1, and "inconclusive" otherwise."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain as _chain, combinations, count, repeat
from math import gcd

from .complexes import SimplicialComplex


def _check_type(name, value, cls):
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")


# ---------------------------------------------------------------------------
# integer linear algebra

def smith_normal_form(matrix) -> list:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    The input is a list of rows of ints (ValueError on any other entry, a
    bool included) and is not modified. The length of the result is the
    rank. Each step pivots on an entry of least absolute value anywhere in
    the remaining block and clears its column with row operations and its
    row with column operations, by floor quotients. When both are clear,
    |pivot| is recorded and its row and column are deleted; otherwise a
    remainder, smaller than the pivot, is the next least entry.
    """
    m = [list(row) for row in matrix]
    nc = len(m[0]) if m else 0
    for row in m:
        if len(row) != nc:
            raise ValueError("ragged matrix")
        for v in row:
            if type(v) is not int:
                raise ValueError(f"entry {v!r} is not an integer")
    diag = []
    while True:
        best = 0
        for i, row in enumerate(m):
            a = min(map(abs, filter(None, row)), default=0)
            if a and (not best or a < best):
                best, pi = a, i
                if a == 1:
                    break
        if not best:
            break
        prow = m[pi]
        pj = list(map(abs, prow)).index(best)
        p = prow[pj]
        for i, row in enumerate(m):
            q = row[pj] // p if i != pi else 0
            if q:
                m[i] = [x - q * y for x, y in zip(row, prow)]
        rest = [row for row in m if row[pj]]  # the pivot row and remainders
        for j, v in enumerate(prow):
            q = v // p if j != pj else 0
            if q:
                for row in rest:
                    row[j] -= q * row[pj]
        if len(rest) == 1 and prow.count(0) == len(prow) - 1:
            diag.append(best)
            del m[pi]
            for row in m:
                del row[pj]
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

    dims lists ints >= 0. boundaries[k-1] (k >= 1) holds one {row: value}
    column per degree-k cell, with int rows in range(dims[k-1]) and nonzero
    int values. Construction checks that format and d d = 0 (ValueError
    otherwise), except through _trusted, which only the builders below use:
    their face rules make both hold. cells, if given, lists each degree's
    cells.
    """

    __slots__ = ("dims", "boundaries", "_cells", "_labels")

    def __init__(self, dims, boundaries, cells=None, *, _trusted=False,
                 _labels=None):
        self.dims = list(dims)
        self.boundaries = boundaries
        self._cells = cells
        self._labels = _labels
        if _trusted:
            return
        for k, dim in enumerate(self.dims):
            if type(dim) is not int or dim < 0:
                raise ValueError(f"dims[{k}] is {dim!r}, not an int >= 0")
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
                    if not (type(row) is int and 0 <= row < n_rows
                            and type(value) is int and value):
                        raise ValueError(f"boundary {k} has entry "
                                         f"{value!r} at row {row!r}")
        for k in range(len(boundaries) - 1):
            _check_composes_to_zero(boundaries[k], boundaries[k + 1], k)

    @property
    def cells(self):
        """The cells by degree, or None. simplicial_chain_complex hands in
        its faces as vertex positions with _labels, its vertices tuple;
        they become label tuples the first time this is read."""
        labels = self._labels
        if labels is not None:
            at = labels.__getitem__
            self._cells = [[tuple(map(at, face)) for face in level]
                           for level in self._cells]
            self._labels = None
        return self._cells


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


def homology(chain: ChainComplex, _matching=None) -> list:
    """Per-degree {"betti": int, "torsion": [int, ...]}.

    _critical_cells' matching (_matching, if given, for this chain) pairs
    cells along +-1 entries, so the chain is homotopy equivalent to its
    Morse complex on the critical cells (Skoldberg, Trans. AMS 358 (2006);
    Kozlov, C. R. Acad. Sci. Paris 340 (2005)). rank d_k is the number of
    pairs with a coface of degree k, plus the rank of the Morse boundary
    (_morse_block), whose Smith form also gives the torsion. That block is
    zero unless degrees k - 1 and k both hold critical cells, and also for
    d_1 when one critical vertex meets columns that each sum to 0: each
    vertex's flow then sums to 1, so each column of the block sums to 0.
    """
    _check_type("chain", chain, ChainComplex)
    dims = chain.dims
    n = len(dims)
    critical, pairs = _matching or _critical_cells(chain)
    reduced = [None] * (n - 1)
    matched = 0
    for k in range(n - 2, -1, -1):  # boundaries[k] is d_(k+1)
        # (k+1)-cells neither critical nor matched up are matched down
        matched = dims[k + 1] - critical[k + 1] - matched
        reduced[k] = matched, []
        if not (critical[k] and critical[k + 1]) or k == 0 and (
                critical[0] == 1 and not any(map(sum, map(
                    dict.values, chain.boundaries[0])))):
            continue
        diag = smith_normal_form(_morse_block(chain, pairs, k))
        reduced[k] = matched + len(diag), [d for d in diag if d > 1]
    out = []
    for k in range(n):
        r_in = reduced[k - 1][0] if k >= 1 else 0
        r_out, torsion = reduced[k] if k < n - 1 else (0, [])
        betti = dims[k] - r_in - r_out
        out.append({"betti": betti, "torsion": torsion})
    total = sum((-1) ** k * dims[k] for k in range(n))
    alt = sum((-1) ** k * out[k]["betti"] for k in range(n))
    if total != alt:
        raise AssertionError("Euler characteristic mismatch in homology")
    return out


def _morse_block(chain: ChainComplex, pairs, k) -> list:
    """The Morse boundary from the critical (k+1)-cells to the critical
    k-cells, as dense rows, of the matching whose pairs are given.

    Each k-cell's flow is its image in the critical k-cells: a critical
    cell's is itself, a cell matched downwards has none, and a face f
    paired with q, at entry e, has -e times the sum of y_g flow(g) over
    q's other faces g, at entries y_g. Those were all removed before f, so
    the pairs, in the order made, reach each flow after those it needs.
    """
    columns = chain.boundaries[k]
    first = sum(chain.dims[:k + 1])  # the number of the first (k+1)-cell
    start = first - chain.dims[k]  # and of the first k-cell
    matched = set(_chain.from_iterable(pairs))
    rows = [f for f in range(chain.dims[k]) if f + start not in matched]
    flows = [{}] * chain.dims[k]
    for i, f in enumerate(rows):
        flows[f] = {i: 1}
    for f, q in pairs:
        if start <= f < first:
            col = columns[q - first]
            f -= start
            e = -col[f]
            flow = {}  # f's own flow is still empty here, so it adds nothing
            for g, y in col.items():
                for i, v in flows[g].items():
                    flow[i] = flow.get(i, 0) + e * y * v
            flows[f] = flow
    cells = [col for q, col in enumerate(columns, first) if q not in matched]
    block = [[0] * len(cells) for _ in rows]
    for j, col in enumerate(cells):
        for f, x in col.items():
            for i, v in flows[f].items():
                block[i][j] += x * v
    return block


def betti_via_rational_ranks(chain: ChainComplex) -> list:
    """Betti numbers only, through the rational-rank oracle."""
    n = len(chain.dims)
    ranks = [rank_over_rationals([[col.get(i, 0) for col in columns]
                                  for i in range(chain.dims[k])])
             for k, columns in enumerate(chain.boundaries)]
    out = []
    for k in range(n):
        r_in = ranks[k - 1] if k >= 1 else 0
        r_out = ranks[k] if k < n - 1 else 0
        out.append(chain.dims[k] - r_in - r_out)
    return out


def simplicial_chain_complex(complex_: SimplicialComplex,
                             top: int | None = None) -> ChainComplex:
    """Ordered-simplex chain complex through degree top (None: all, else
    an int >= 0).

    cells[k] lists complex_.k_simplices(k) in that order, each a tuple in
    the order of complex_.vertices, labelled when cells is first read. A
    column keys its rows in combinations order with signs (-1)^k, ..., +1:
    an edge (a, b) is {a: -1, b: 1}, a triangle (a, b, c) is ab - ac + bc.
    """
    _check_type("complex_", complex_, SimplicialComplex)
    if top is not None and not (type(top) is int and top >= 0):
        raise ValueError(f"top must be None or an int >= 0, got {top!r}")
    dim = complex_.dim()
    if top is not None:
        dim = min(dim, top)
    faces = complex_._position_faces(dim)
    # an edge (a, b), a < b, has boundary b - a
    boundaries = [[{a: -1, b: 1} for a, b in faces[1]]] if dim >= 1 else []
    if dim >= 2:
        n = len(faces[0])
        edge = {a * n + b: i for i, (a, b) in enumerate(faces[1])}
        boundaries.append([{edge[a * n + b]: 1, edge[a * n + c]: -1,
                            edge[b * n + c]: 1} for a, b, c in faces[2]])
    for k in range(3, dim + 1):
        row = {face: i for i, face in enumerate(faces[k - 1])}.__getitem__
        # combinations drops the last vertex first: signs (-1)^k, ..., +1
        signs = [-1 if i % 2 else 1 for i in range(k, -1, -1)]
        boundaries.append([dict(zip(map(row, combinations(face, k)), signs))
                           for face in faces[k]])
    return ChainComplex([len(level) for level in faces], boundaries, faces,
                        _trusted=True, _labels=complex_.vertices)


# ---------------------------------------------------------------------------
# cubical route for fragments

def cubical_chain_complex(fragment) -> ChainComplex:
    """Chain complex of the cube structure carried by a fragment.

    cells[k] lists the cells (base, word) with k L letters in the order of
    Fragment.cells(). Across its j-th axis a cell has the j-th faces that
    Fragment.faces lists: the front one with sign (-1)^j, the back one with
    the opposite sign. A k-cube's 2k faces are distinct: nothing cancels.
    """
    flat = fragment.cells()  # an empty fragment still has its degree 0

    def degree(cell):  # nondecreasing along flat, so bisection finds levels
        return cell[1].count("L")

    ends = [bisect_right(flat, k, key=degree)
            for k in range(degree(flat[-1]) + 1)] if flat else [0]
    cells = [flat[a:b] for a, b in zip([0] + ends, ends)]
    boundaries = []
    faces = fragment.faces
    for k in range(1, len(cells)):
        index = {cell: i for i, cell in enumerate(cells[k - 1])}
        signs = [(-1) ** j for j in range(1, k + 1)]
        columns = []
        for base, word in cells[k]:
            col = {}
            for (back, front), sign in zip(faces(base, word), signs):
                col[index[front]] = sign
                col[index[back]] = -sign
            columns.append(col)
        boundaries.append(columns)
    return ChainComplex([len(c) for c in cells], boundaries, cells=cells,
                        _trusted=True)


def subdivision_complex(fragment) -> SimplicialComplex:
    """Staircase triangulation of the fragment's cubes, on the same vertices.

    Each k-cell contributes one k-simplex per maximal chain of its corner
    lattice: its base, then a chain of its front face across one axis.
    Shared faces are triangulated alike, so the homology is the cubical one.
    """
    chains: dict = {}  # cells() lists every face before its cofaces
    for base, word in fragment.cells():
        chains[base, word] = [
            [base] + chain for _, front in fragment.faces(base, word)
            for chain in chains[front]] or [[base]]
    return SimplicialComplex([chain for cell_chains in chains.values()
                              for chain in cell_chains])


def quotient_chain_complex(chain: ChainComplex, dropped) -> ChainComplex:
    """Relative chain complex: drop the cells of a subcomplex.

    dropped[k] is a set of cell indices (ints) in degree k, closed under the
    boundary; ValueError when it is not, or names no cell of its degree.
    """
    n = len(chain.dims)
    dropped = list(dropped)
    for k, level in enumerate(dropped):
        size = chain.dims[k] if k < n else 0
        for i in level:
            if type(i) is not int or not 0 <= i < size:
                raise ValueError(f"degree {k} has no cell {i!r} to drop")
    dropped += [set()] * (n - len(dropped))
    keep = [[i for i in range(chain.dims[k]) if i not in dropped[k]]
            for k in range(n)]
    for k in range(1, n):
        columns = chain.boundaries[k - 1]
        for j in dropped[k]:
            if any(i not in dropped[k - 1] for i in columns[j]):
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
    return ChainComplex(dims, boundaries, _trusted=True)


def fragment_pair_homology(fragment, in_sub) -> list:
    """Homology of a fragment relative to the full cubical subcomplex on
    the vertices that in_sub(vertex_index), called once per vertex, picks:
    a cell of dimension >= 1 is in it when all its boundary's rows are.
    """
    chain = cubical_chain_complex(fragment)
    sub = [set(filter(in_sub, range(chain.dims[0])))]
    for columns in chain.boundaries:
        below = sub[-1]
        sub.append({j for j, col in enumerate(columns)
                    if below.issuperset(col)})
    return homology(quotient_chain_complex(chain, sub))


def relative_homology(complex_: SimplicialComplex,
                      subcomplex: SimplicialComplex) -> list:
    """Homology of the pair (complex_, subcomplex)."""
    _check_type("complex_", complex_, SimplicialComplex)
    _check_type("subcomplex", subcomplex, SimplicialComplex)
    sub = subcomplex.simplices()
    for s in sub:
        if s not in complex_:
            raise ValueError("second argument is not a subcomplex")
    chain = simplicial_chain_complex(complex_)
    return homology(quotient_chain_complex(chain, [
        {i for i, cell in enumerate(level) if frozenset(cell) in sub}
        for level in chain.cells]))


# ---------------------------------------------------------------------------
# reports and fundamental-group evidence

def _critical_cells(chain: ChainComplex) -> tuple:
    """(critical cells by degree, (face, coface) pairs in the order made)
    of a greedy coreduction matching (Mrozek and Batko, Discrete Comput.
    Geom. 41 (2009)) on any integer chain, pairing only along +-1 entries;
    cells are numbered degree by degree.

    The cells with one face start the queue, the others are visited in
    order, and one whose faces are all gone is critical. A coface left
    with one alive face is paired with it if that entry is +-1; otherwise
    the face waits for its own visit. Along a pair's V-path each face was
    removed before the last, so the matching is acyclic, and each pair is
    a unit: the chain is homotopy equivalent to its Morse complex on the
    critical cells (Skoldberg, Trans. AMS 358 (2006)). On a simplicial
    chain, counts [1] or [1, 0, ...] prove the complex connected with
    H1 = 0 and pi1 trivial (Forman, Adv. Math. 134 (1998)).
    """
    dims = chain.dims
    starts = [0, *accumulate(dims)]  # the number of each degree's first cell
    degree = list(_chain.from_iterable(map(repeat, count(), dims)))
    faces = [()] * (dims[0] if dims else 0)  # columns: rows one degree down
    cofaces = [[] for _ in degree]
    for k, columns in enumerate(chain.boundaries):
        faces += columns
        start = starts[k]
        for c, col in enumerate(columns, starts[k + 1]):
            for f in col:
                cofaces[start + f].append(c)
    left = list(map(len, faces))  # alive faces of each cell
    alive = [True] * len(faces)
    queue = [c for c, size in enumerate(left) if size == 1]

    def remove(x):
        alive[x] = False
        for q in cofaces[x]:
            left[q] -= 1
            if left[q] == 1:
                queue.append(q)

    critical = [0] * len(dims)
    pairs = []
    for c in range(len(faces)):  # the last cell has no coface to queue
        while queue:  # pair each coface left with one alive face, at +-1
            q = queue.pop()
            if alive[q] and left[q] == 1:
                start = starts[degree[q] - 1]
                for f, e in faces[q].items():
                    if alive[start + f]:
                        break
                if e == 1 or e == -1:
                    remove(q)
                    remove(start + f)
                    pairs.append((start + f, q))
        if alive[c]:  # its faces, all visited, are gone: c is critical
            critical[degree[c]] += 1
            remove(c)
    return critical, pairs


def homology_report(complex_: SimplicialComplex, with_pi1: bool = False,
                    *, _through=None) -> dict:
    """Betti numbers, torsion, connectedness (from H0) and, if with_pi1 (a
    bool), pi1 of a connected complex: "trivial" on a matching proof,
    "nontrivial" on nonzero H1, else "inconclusive". _through lists only the
    exact degrees 0.._through (pi1 needs >= 1) off a chain built through
    _through + 1; through H1, a matching proof gives the groups as its
    critical counts, without homology()."""
    if type(with_pi1) is not bool:
        raise ValueError(f"with_pi1 must be a bool, got {with_pi1!r}")
    top = None if _through is None else _through + 1
    chain = simplicial_chain_complex(complex_, top)  # checks complex_
    nonempty = not complex_.is_empty()
    matching = _critical_cells(chain)
    proved = matching[0][:2] in ([1], [1, 0])
    res = ([{"betti": c, "torsion": []} for c in matching[0][:top]]
           if proved and top is not None and top <= 2
           else homology(chain, matching)[:top])
    betti = [r["betti"] for r in res]
    connected = nonempty and betti[0] == 1
    return {"betti": betti,
            "betti_reduced": ([betti[0] - 1] + betti[1:] if nonempty
                              else list(betti)),
            "torsion": [r["torsion"] for r in res],
            "nonempty": nonempty, "connected": connected,
            "pi1": ("trivial" if proved else "nontrivial" if any(
                r["betti"] or r["torsion"] for r in res[1:2])
                else "inconclusive") if with_pi1 and connected else None}


def pi1_trivial(complex_: SimplicialComplex) -> str:
    """"trivial", "nontrivial" or "inconclusive" for the fundamental group
    of a nonempty connected complex: homology_report's pi1 through H1, the
    pi1 of connectivity_evidence at k = 1."""
    _check_type("complex_", complex_, SimplicialComplex)
    if complex_.is_empty():
        raise ValueError("pi1 of the empty complex is undefined")
    pi1 = homology_report(complex_, True, _through=1)["pi1"]
    if pi1 is None:
        raise ValueError("pi1 needs a connected complex")
    return pi1


def connectivity_evidence(complex_: SimplicialComplex, k: int) -> dict:
    """Checks that the complex is k-connected (nonempty; connected if k >= 0;
    H1..Hk zero and pi1 if k >= 1), off homology_report through degree k.
    Verdict: "fail", else "inconclusive" on an open pi1, else "consistent"."""
    _check_type("complex_", complex_, SimplicialComplex)
    if type(k) is not int:
        raise ValueError(f"k must be an int >= -1, got {k!r}")
    if k < -1:
        raise ValueError(f"need k >= -1, got {k}")
    nonempty = not complex_.is_empty()
    report = (homology_report(complex_, k >= 1, _through=k) if nonempty
              and k >= 0 else {"betti": [0], "pi1": None})
    betti, pi1 = report["betti"] + [0] * k, report["pi1"]  # 0 past the top
    checks = [("nonempty", nonempty, "")]
    if k >= 0:
        checks.append(("connected", betti[0] == 1,
                       f"{betti[0]} components" if nonempty else "empty"))
    if k >= 1 and betti[0] == 1:
        torsion = report["torsion"] + [[]] * k
        for i in range(1, k + 1):
            checks.append((f"H{i}_zero", betti[i] == 0 and not torsion[i],
                           f"betti={betti[i]} torsion={torsion[i]}"))
        checks.append(("pi1", pi1 != "nontrivial", pi1))
    verdict = ("fail" if not all(ok for _, ok, _ in checks) else
               "inconclusive" if pi1 == "inconclusive" else "consistent")
    return {"k": k, "verdict": verdict, "checks": [
        {"name": n, "ok": ok, "detail": d} for n, ok, d in checks], "pi1": pi1}
