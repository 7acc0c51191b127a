"""Integral homology and connectivity evidence for chain complexes.

boundaries[k-1] of a ChainComplex holds one sparse {row: value} column per
degree-k cell, with no zero values. homology() pairs cells along +-1
entries with a coreduction matching (_critical_cells) and hands the dense
Smith normal form only the Morse boundary between critical cells, where
two critical degrees meet (algebraic discrete Morse theory). The dense
Smith normal form of a whole boundary and the exact-rational rank route
are test oracles.

pi1 answers "trivial", "nontrivial" (only on nonzero H1) or "inconclusive".
A matching that leaves one critical vertex and no critical edge proves it
trivial; otherwise a Tietze loop simplifies the spanning-tree presentation,
and as each move removes a generator, it stops by itself.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain as _chain, combinations, count, repeat
from math import gcd

from .complexes import SimplicialComplex


# ---------------------------------------------------------------------------
# integer linear algebra

def smith_normal_form(matrix) -> list:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    The input is a list of rows of integers (ValueError on any other
    entry) and is not modified. The length of the result is the rank.
    """
    m = [list(row) for row in matrix]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    for row in m:
        if len(row) != nc:
            raise ValueError("ragged matrix")
        for v in row:
            if not isinstance(v, int):
                raise ValueError(f"entry {v!r} is not an integer")
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
            if not isinstance(dim, int) or dim < 0:
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
                    if not (isinstance(row, int) and 0 <= row < n_rows
                            and isinstance(value, int) and value):
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
    if top is not None and not (isinstance(top, int) and top >= 0):
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

    dropped[k] is a set of cell indices in degree k, closed under the
    boundary; ValueError when it is not, or names no cell of its degree.
    """
    n = len(chain.dims)
    dropped = list(dropped)
    for k, level in enumerate(dropped):
        size = chain.dims[k] if k < n else 0
        for i in (min(level), max(level)) if level else ():
            if not 0 <= i < size:
                raise ValueError(f"degree {k} has no cell {i} to drop")
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


def homology_report(complex_: SimplicialComplex,
                    with_pi1: bool = False) -> dict:
    """Betti numbers, torsion, connectedness (from H0) and on request pi1."""
    nonempty = not complex_.is_empty()
    chain = simplicial_chain_complex(complex_)
    matching = _critical_cells(chain)
    res = homology(chain, matching)
    betti = [r["betti"] for r in res]
    reduced = [betti[0] - 1] + betti[1:] if nonempty else list(betti)
    report = {
        "betti": betti,
        "betti_reduced": reduced,
        "torsion": [r["torsion"] for r in res],
        "nonempty": nonempty,
        "connected": nonempty and betti[0] == 1,
        "pi1": None,
    }
    if with_pi1 and report["connected"]:
        report["pi1"] = ("trivial" if matching[0][:2] in ([1], [1, 0])
                         else _pi1_verdict(chain, res))
    return report


def pi1_trivial(complex_: SimplicialComplex) -> str:
    """"trivial", "nontrivial" or "inconclusive" for the fundamental group
    of a nonempty connected complex: connectivity_evidence's pi1 at k = 1.
    "nontrivial" only on nonzero H1; "trivial" on a matching proof, or when
    the Tietze loop empties the presentation.
    """
    if complex_.is_empty():
        raise ValueError("pi1 of the empty complex is undefined")
    pi1 = connectivity_evidence(complex_, 1)["pi1"]
    if pi1 is None:
        raise ValueError("pi1 needs a connected complex")
    return pi1


def _free_reduce(word) -> list:
    """The freely reduced word; letters 0 are dropped."""
    out: list = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        elif x:
            out.append(x)
    return out


def _presentation(chain: ChainComplex) -> tuple:
    """(generators, relators) of pi1 of a connected complex: generator g is
    the g-th edge off a BFS spanning tree from vertex 0."""
    # simplicial_chain_complex keys a boundary column in combinations order:
    # an edge (a, b) by rows a, b, a triangle (a, b, c) by edges ab, ac, bc
    edges = [tuple(col) for col in chain.boundaries[0]]
    adjacency: list = [[] for _ in range(chain.dims[0])]
    for j, (u, v) in enumerate(edges):
        adjacency[u].append((v, j))
        adjacency[v].append((u, j))
    tree = set()
    seen = {0}
    queue = [0]
    for u in queue:  # the loop reads what it appends, breadth first
        for w, j in sorted(adjacency[u]):
            if w not in seen:
                seen.add(w)
                tree.add(j)
                queue.append(w)
    off_tree = count(1)  # generator of each edge, 0 on the tree
    gens = [0 if j in tree else next(off_tree) for j in range(len(edges))]
    # three distinct edges give a freely reduced word; tree edges drop out
    triangles = chain.boundaries[1] if len(chain.dims) > 2 else ()
    words = ([x for x in (gens[ab], gens[bc], -gens[ac]) if x]
             for ab, ac, bc in triangles)
    return set(range(1, len(edges) - len(tree) + 1)), [w for w in words if w]


def _pi1_verdict(chain: ChainComplex, res: list) -> str:
    """pi1_trivial's verdict for a connected complex, given its simplicial
    chain complex through degree >= 2 and that complex's homology. Each
    Tietze move removes a generator and relators hold only those left, so
    the loop stops within one move per generator (edge off the tree)."""
    if len(res) > 1 and (res[1]["betti"] > 0 or res[1]["torsion"]):
        return "nontrivial"
    if len(chain.dims) < 2:
        return "trivial"
    alive, relators = _presentation(chain)
    while alive:
        # the first relator of length 1, else of length 2 over two generators
        named = None
        for i, w in enumerate(relators):
            if len(w) == 1:
                named = i
                break
            if named is None and len(w) == 2 and abs(w[0]) != abs(w[1]):
                named = i
        if named is not None:
            # kill or substitute: the last letter x of w is the inverse of
            # the one letter before it, or of none (0, which is dropped)
            w = relators.pop(named)
            x, y = w[-1], -w[0] if len(w) == 2 else 0
            g, sub = abs(x), {x: y, -x: -y}
            kept = []
            for r in relators:
                if g in r or -g in r:
                    r = _free_reduce(map(sub.get, r, r))
                if r:
                    kept.append(r)
            relators = kept
            alive.discard(g)
            continue
        # else the smallest generator used once goes with its relator; one
        # used nowhere stays alive, as no move can bring it back
        usage = Counter(abs(x) for r in relators for x in r)
        g = min((g for g in alive if usage[g] == 1), default=None)
        if g is None:
            break
        relators = [r for r in relators if g not in r and -g not in r]
        alive.discard(g)
    return "trivial" if not alive else "inconclusive"


def connectivity_evidence(complex_: SimplicialComplex, k: int) -> dict:
    """Homology + pi1 evidence that the complex is k-connected.

    k = -1 asks only for nonemptiness, k = 0 adds connectivity, k >= 1 adds
    vanishing reduced homology through degree k and a pi1 verdict. The
    verdict is "consistent" when every obtainable check passes (pi1
    "trivial" included, when required), "fail" when any check fails, and
    "inconclusive" when the only gap is an unresolved pi1. Checks, in order:
    nonempty, connected ("empty" or "N components"), H1_zero..Hk_zero, pi1.
    A matching proof (_critical_cells) settles H0, H1 and pi1 by itself.
    """
    if not isinstance(k, int):
        raise ValueError(f"k must be an int >= -1, got {k!r}")
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
        if nonempty:  # connectedness is read off the matching or from H0
            chain = simplicial_chain_complex(complex_, top=max(k + 1, 1))
            matching = _critical_cells(chain)
            proved = matching[0][:2] in ([1], [1, 0])
            res = (homology(chain, matching) if k >= 2 or not proved
                   else [{"betti": 1, "torsion": []}])
            ncomp = res[0]["betti"]
        if check("connected", ncomp == 1,
                 f"{ncomp} components" if nonempty else "empty") and k >= 1:
            res += [{"betti": 0, "torsion": []}] * (k + 1 - len(res))
            for i in range(1, k + 1):
                betti, torsion = res[i]["betti"], res[i]["torsion"]
                check(f"H{i}_zero", betti == 0 and not torsion,
                      f"betti={betti} torsion={torsion}")
            pi1 = "trivial" if proved else _pi1_verdict(chain, res)
            check("pi1", pi1 != "nontrivial", pi1)

    verdict = ("fail" if any(not c["ok"] for c in checks) else
               "inconclusive" if pi1 == "inconclusive" else "consistent")
    return {"k": k, "verdict": verdict, "checks": checks, "pi1": pi1}
