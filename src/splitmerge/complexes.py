"""Finite abstract simplicial complexes and the link models used here.

Complexes are stored by their maximal simplices over hashable labels. The
labels appearing in practice are tagged tuples ("v", i) and ("e", i) for
foot/foot-pair positions, frozensets of those (vertices of matching
complexes of complexes), and (side, value, component) triples for nerves.

The second half of the module builds matching complexes of linear graphs and
the combinatorial model of ascending links of cube-complex vertices: labels
("v", i) (split foot i) and ("e", i) (merge feet i, i+1) span a simplex when
their foot footprints are pairwise disjoint and the whole implied cube stays
inside the foot-count band.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import Character


def label_key(label):
    """Total order on the label kinds used across the package."""
    if isinstance(label, frozenset):
        return (3, tuple(sorted(label_key(x) for x in label)))
    if isinstance(label, tuple):
        return (2, tuple(label_key(x) for x in label))
    if isinstance(label, int):
        return (0, label)
    return (1, str(label))


def label_str(label) -> str:
    if isinstance(label, frozenset):
        inner = ",".join(label_str(x)
                         for x in sorted(label, key=label_key))
        return "{" + inner + "}"
    if isinstance(label, tuple) and len(label) == 2 \
            and isinstance(label[0], str) and isinstance(label[1], int):
        return f"{label[0]}{label[1]}"
    if isinstance(label, tuple) and len(label) == 3:
        return f"{label[0]}={label[1]}.{label[2]}"
    return str(label)


def connected_groups(items, blocks) -> list:
    """Classes of items when the items of each nonempty block are joined.

    Union-find; each class lists its items in input order, and classes are
    ordered by their first item.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for block in blocks:
        it = iter(block)
        first = find(next(it))
        for x in it:
            parent[find(x)] = first
    groups: dict = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _maximal(sets):
    """Maximal elements of a collection of frozensets."""
    by_size = sorted(set(sets), key=len, reverse=True)
    kept: list = []
    for s in by_size:
        if not any(s < t for t in kept):
            kept.append(s)
    return frozenset(kept)


class SimplicialComplex:
    """Immutable complex built from any generating family of simplices."""

    __slots__ = ("facets", "_simplices", "_vertices")

    def __init__(self, simplices):
        gen = [frozenset(s) for s in simplices]
        for s in gen:
            if not s:
                raise ValueError("simplices must be nonempty")
        object.__setattr__(self, "facets", _maximal(gen))
        object.__setattr__(self, "_simplices", None)
        object.__setattr__(self, "_vertices", None)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls([])

    @classmethod
    def simplex(cls, labels) -> "SimplicialComplex":
        return cls([frozenset(labels)])

    @classmethod
    def boundary_sphere(cls, labels) -> "SimplicialComplex":
        """Boundary of the simplex on the given labels."""
        ls = frozenset(labels)
        if len(ls) < 2:
            raise ValueError("need at least 2 labels for a boundary")
        return cls([ls - {x} for x in ls])

    # -- basic queries ----------------------------------------------------

    def simplices(self) -> frozenset:
        cached = self._simplices
        if cached is None:
            out = set()
            for f in self.facets:
                _add_subsets(f, out)
            cached = frozenset(out)
            object.__setattr__(self, "_simplices", cached)
        return cached

    @property
    def vertices(self) -> tuple:
        cached = self._vertices
        if cached is None:
            vs = set()
            for f in self.facets:
                vs |= f
            cached = tuple(sorted(vs, key=label_key))
            object.__setattr__(self, "_vertices", cached)
        return cached

    def is_empty(self) -> bool:
        return not self.facets

    def __contains__(self, simplex) -> bool:
        s = frozenset(simplex)
        return any(s <= f for f in self.facets)

    def dim(self) -> int:
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    def k_simplices(self, k: int) -> list:
        """The k-dimensional simplices in canonical order."""
        out = [s for s in self.simplices() if len(s) == k + 1]
        out.sort(key=lambda s: tuple(sorted(label_key(x) for x in s)))
        return out

    def f_vector(self) -> tuple:
        counts = {}
        for s in self.simplices():
            counts[len(s)] = counts.get(len(s), 0) + 1
        if not counts:
            return ()
        return tuple(counts.get(k, 0) for k in range(1, max(counts) + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        fv = self.f_vector()
        return f"SimplicialComplex(f_vector={fv})"

    # -- connectivity ------------------------------------------------------

    def components(self) -> list:
        """Vertex sets of connected components, canonically ordered."""
        comps = [sorted(g, key=label_key)
                 for g in connected_groups(self.vertices, self.facets)]
        comps.sort(key=lambda g: label_key(g[0]))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    # -- derived complexes --------------------------------------------------

    def full_subcomplex(self, keep) -> "SimplicialComplex":
        """Full subcomplex on the vertices in keep (a set or predicate)."""
        if callable(keep):
            keepset = {v for v in self.vertices if keep(v)}
        else:
            keepset = set(keep)
        gen = [f & keepset for f in self.facets if f & keepset]
        return SimplicialComplex(gen)

    def star(self, v) -> "SimplicialComplex":
        """Closed star of a vertex."""
        return SimplicialComplex([f for f in self.facets if v in f])

    def link(self, v) -> "SimplicialComplex":
        return self.link_of_simplex([v])

    def link_of_simplex(self, simplex) -> "SimplicialComplex":
        s = frozenset(simplex)
        gen = [f - s for f in self.facets if s <= f and f - s]
        return SimplicialComplex(gen)

    def remove_open_star(self, simplex) -> "SimplicialComplex":
        """All simplices not containing the given one."""
        s = frozenset(simplex)
        gen: list = []
        for f in self.facets:
            if s <= f:
                gen.extend(f - {x} for x in s if f - {x})
            else:
                gen.append(f)
        return SimplicialComplex(gen)

    def is_cone_with_apex(self, v) -> bool:
        return bool(self.facets) and all(v in f for f in self.facets)

    def relabel(self, mapping) -> "SimplicialComplex":
        fn = mapping if callable(mapping) else mapping.__getitem__
        image = [frozenset(fn(x) for x in f) for f in self.facets]
        for old, new in zip(self.facets, image):
            if len(old) != len(new):
                raise ValueError("relabeling must be injective on simplices")
        return SimplicialComplex(image)

    def to_json(self) -> dict:
        verts = list(self.vertices)
        index = {v: i for i, v in enumerate(verts)}
        facets = sorted(sorted(index[v] for v in f) for f in self.facets)
        return {
            "vertices": [label_str(v) for v in verts],
            "facets": facets,
        }


def _add_subsets(s: frozenset, out: set):
    if s in out:
        return
    out.add(s)
    for x in s:
        sub = s - {x}
        if sub:
            _add_subsets(sub, out)


def join(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; the vertex sets must be disjoint."""
    if not k1.facets:
        return k2
    if not k2.facets:
        return k1
    if set(k1.vertices) & set(k2.vertices):
        raise ValueError("join requires disjoint vertex sets")
    return SimplicialComplex([f1 | f2 for f1 in k1.facets
                              for f2 in k2.facets])


def cone(base: SimplicialComplex, apex) -> SimplicialComplex:
    if apex in base.vertices:
        raise ValueError("apex already a vertex of the base")
    if not base.facets:
        return SimplicialComplex.simplex([apex])
    return SimplicialComplex([f | {apex} for f in base.facets])


# ---------------------------------------------------------------------------
# matching complexes

def linear_graph(n: int) -> SimplicialComplex:
    """Path graph on vertices ("v", 1..n) as a 1-dimensional complex."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return SimplicialComplex([[("v", 1)]])
    return SimplicialComplex(
        [[("v", i), ("v", i + 1)] for i in range(1, n)])


def _disjoint_family_complex(items) -> SimplicialComplex:
    """Complex whose simplices are sets of items with disjoint footprints.

    items: list of (label, footprint) with footprint a frozenset. Labels
    pairwise distinct. Vertices with overlapping footprints never span a
    simplex; the empty complex results from an empty item list.
    """
    n = len(items)
    simplices: list = []

    def grow(start: int, current: list, used: frozenset):
        for k in range(start, n):
            label, foot = items[k]
            if used & foot:
                continue
            current.append(label)
            simplices.append(frozenset(current))
            grow(k + 1, current, used | foot)
            current.pop()

    grow(0, [], frozenset())
    return SimplicialComplex(simplices)


def general_matching_complex(k: SimplicialComplex) -> SimplicialComplex:
    """Complex of sets of pairwise-disjoint simplices of k.

    Vertices are the simplices of k themselves (as frozenset labels).
    """
    base = sorted(k.simplices(),
                  key=lambda s: tuple(sorted(label_key(x) for x in s)))
    return _disjoint_family_complex([(s, s) for s in base])


def matching_complex(k: SimplicialComplex) -> SimplicialComplex:
    """Complex of matchings of the 1-skeleton of k."""
    base = k.k_simplices(1)
    return _disjoint_family_complex([(s, s) for s in base])


def gm_linear(n: int) -> SimplicialComplex:
    """General matching complex of the n-path, with ("v",i)/("e",i) labels.

    ("v", i) stands for the singleton {v_i}; ("e", i) for the edge
    {v_i, v_{i+1}}.
    """
    items = [(("v", i), frozenset([i])) for i in range(1, n + 1)]
    items += [(("e", i), frozenset([i, i + 1])) for i in range(1, n)]
    items.sort(key=lambda kv: label_key(kv[0]))
    return _disjoint_family_complex(items)


def m_linear(n: int) -> SimplicialComplex:
    """Matching complex of the n-path, with ("e", i) labels."""
    items = [(("e", i), frozenset([i, i + 1])) for i in range(1, n)]
    return _disjoint_family_complex(items)


def shift_labels(k: SimplicialComplex, delta: int) -> SimplicialComplex:
    """Shift every positional label ("v"/"e", i) by delta."""
    return k.relabel(lambda lab: (lab[0], lab[1] + delta))


# ---------------------------------------------------------------------------
# ascending-link model

def move_delta(n: int, label) -> tuple:
    """(d chi0, d chi1) along the move named by label at a vertex with n feet."""
    kind, i = label
    if kind == "v":
        if not 1 <= i <= n:
            raise ValueError(f"split position {i} out of range")
        return (-1 if i == 1 else 0, -1 if i == n else 0)
    if kind == "e":
        if not 1 <= i <= n - 1:
            raise ValueError(f"merge position {i} out of range")
        return (1 if i == 1 else 0, 1 if i == n - 1 else 0)
    raise ValueError(f"unknown label kind {kind!r}")


def _ascending(n: int, character: Character, secondary: int, label) -> bool:
    d0, d1 = move_delta(n, label)
    dchi = character.a * d0 + character.b * d1
    if dchi > 0:
        return True
    if dchi < 0:
        return False
    dfeet = 1 if label[0] == "v" else -1
    return secondary * dfeet > 0


def ascending_link_model(n: int, character: Character, secondary: int,
                         band: tuple) -> SimplicialComplex:
    """Model of the ascending link of any n-foot vertex, band-restricted.

    A set of moves spans a simplex when footprints are disjoint and the
    whole cube they span stays inside the band: n + #splits <= q and
    n - #merges >= p.
    """
    p, q = band
    if not p <= n <= q:
        raise ValueError(f"feet {n} outside band [{p},{q}]")
    items = []
    for i in range(1, n + 1):
        if _ascending(n, character, secondary, ("v", i)) and n + 1 <= q:
            items.append((("v", i), frozenset([i])))
    for i in range(1, n):
        if _ascending(n, character, secondary, ("e", i)) and n - 1 >= p:
            items.append((("e", i), frozenset([i, i + 1])))
    items.sort(key=lambda kv: label_key(kv[0]))

    full = _disjoint_family_complex(items)
    admissible = []
    for s in full.simplices():
        splits = sum(1 for lab in s if lab[0] == "v")
        merges = len(s) - splits
        if n + splits <= q and n - merges >= p:
            admissible.append(s)
    return SimplicialComplex(admissible)


def descending_link_model(n: int, character: Character, secondary: int,
                          band: tuple) -> SimplicialComplex:
    """Moves that strictly lower the refined height, same band semantics."""
    return ascending_link_model(n, character.negated(), -secondary, band)
