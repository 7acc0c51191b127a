"""Finite abstract simplicial complexes and the link models used here.

Complexes are stored by their maximal simplices over hashable labels. The
labels appearing in practice are tagged tuples ("v", i) and ("e", i) for
foot/foot-pair positions, frozensets of those (vertices of matching
complexes of complexes), and (side, value, component) triples for nerves.
label_key orders labels once, in SimplicialComplex.vertices; simplices,
components and chain-complex cells are ordered by vertex positions there.
Builders whose families are maximal by construction (the disjoint-family
models here and the link routes of steinfarley) go through the trusted
SimplicialComplex._from_facets; every other family goes through _maximal.

The second half of the module builds matching complexes of linear graphs and
the combinatorial model of ascending links of cube-complex vertices: labels
("v", i) (split foot i) and ("e", i) (merge feet i, i+1) span a simplex when
their foot footprints are pairwise disjoint and the whole implied cube stays
inside the foot-count band; the band caps prune the recursion that lists
the maximal disjoint families. Footprints are int bitmasks, and a move's
direction is the sign of its height change in the character's scaled
integer form, so the model compares integers only.
"""

from __future__ import annotations

from itertools import combinations

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
    """Maximal elements of a collection of frozensets; each candidate is
    compared only with the kept sets through its rarest vertex."""
    kept: list = []
    containing: dict = {}  # vertex -> kept sets holding it
    for s in sorted(set(sets), key=len, reverse=True):
        rivals = min((containing.get(x, ()) for x in s), key=len,
                     default=kept)
        if not any(s < t for t in rivals):
            kept.append(s)
            for x in s:
                containing.setdefault(x, []).append(s)
    return frozenset(kept)


class SimplicialComplex:
    """Immutable complex built from any generating family of simplices."""

    __slots__ = ("facets", "_vertices")

    def __init__(self, simplices):
        gen = [frozenset(s) for s in simplices]
        if not all(gen):
            raise ValueError("simplices must be nonempty")
        object.__setattr__(self, "facets", _maximal(gen))
        object.__setattr__(self, "_vertices", None)

    @classmethod
    def _from_facets(cls, facets) -> "SimplicialComplex":
        """Trusted constructor: facets must be distinct, nonempty, pairwise
        incomparable frozensets. Skips _maximal and the emptiness check;
        only builders whose families are maximal by construction call it."""
        self = object.__new__(cls)
        object.__setattr__(self, "facets", frozenset(facets))
        object.__setattr__(self, "_vertices", None)
        return self

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
        return frozenset(self._labelled(self._position_faces(self.dim())))

    @property
    def vertices(self) -> tuple:
        """The vertices in label_key order, which fixes every simplex order."""
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
        """The k-simplices, in _position_faces order (by vertex positions)."""
        return self._labelled(self._position_faces(k)[k:])

    def _position_faces(self, top: int) -> list:
        """Faces of dimension 0..min(top, dim()), one sorted list each, as
        increasing tuples of vertex positions taken from each facet."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        levels: list = [set() for _ in range(min(top, self.dim()) + 1)]
        for f in self.facets:
            ps = sorted(pos[x] for x in f)
            for k in range(min(len(ps), len(levels))):
                levels[k].update(combinations(ps, k + 1))
        return [sorted(level) for level in levels]

    def _labelled(self, levels) -> list:
        vs = self.vertices
        return [frozenset(vs[i] for i in face)
                for level in levels for face in level]

    def f_vector(self) -> tuple:
        return tuple(map(len, self._position_faces(self.dim())))

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
        """Vertex lists of connected components, in the order of vertices."""
        return connected_groups(self.vertices, self.facets)

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    # -- derived complexes --------------------------------------------------

    def full_subcomplex(self, keep) -> "SimplicialComplex":
        """Full subcomplex on the vertices in keep, a collection of labels."""
        keepset = set(keep)
        gen = [f & keepset for f in self.facets if f & keepset]
        return SimplicialComplex(gen)

    def star(self, v) -> "SimplicialComplex":
        """Closed star of a vertex."""
        return SimplicialComplex([f for f in self.facets if v in f])

    def link(self, v) -> "SimplicialComplex":
        return SimplicialComplex([f - {v} for f in self.facets
                                  if v in f and len(f) > 1])

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

def _disjoint_family_complex(items, caps=None) -> SimplicialComplex:
    """Complex whose simplices are sets of items with disjoint footprints.

    items: list of (label, footprint) with footprint a nonzero int bitmask.
    Labels pairwise distinct; an empty item list gives the empty complex.
    caps, when given, maps label[0] of every label to the most items of
    that kind a family may hold; the counts left travel down the recursion.
    Only maximal families are recorded, each once, as _from_facets needs.
    """
    facets: list = []
    room = dict(caps) if caps is not None else None

    def grow(start: int, current: list, used: int):
        maximal = True
        for k in range(start, len(items)):
            label, foot = items[k]
            if used & foot or (room is not None and not room[label[0]]):
                continue
            maximal = False
            current.append(label)
            if room is not None:
                room[label[0]] -= 1
            grow(k + 1, current, used | foot)
            if room is not None:
                room[label[0]] += 1
            current.pop()
        if current and maximal and not any(
                not used & foot and (room is None or room[label[0]])
                for label, foot in items[:start]):
            facets.append(frozenset(current))

    grow(0, [], 0)
    return SimplicialComplex._from_facets(facets)


def _path_items(n: int, splits: bool = True) -> list:
    """("v", i) over foot i and ("e", i) over feet i, i+1 of an n-path."""
    items = [(("v", i), 1 << i) for i in range(1, n + 1)] if splits else []
    return items + [(("e", i), 3 << i) for i in range(1, n)]


def gm_linear(n: int) -> SimplicialComplex:
    """General matching complex of the n-path, with ("v",i)/("e",i) labels.

    ("v", i) stands for the singleton {v_i}; ("e", i) for the edge
    {v_i, v_{i+1}}.
    """
    return _disjoint_family_complex(_path_items(n))


def m_linear(n: int) -> SimplicialComplex:
    """Matching complex of the n-path, with ("e", i) labels."""
    return _disjoint_family_complex(_path_items(n, splits=False))


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
    a, b = character.ints
    dchi = a * d0 + b * d1
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
    n - #merges >= p. The band caps prune the disjoint-family recursion.
    """
    p, q = band
    if not p <= n <= q:
        raise ValueError(f"feet {n} outside band [{p},{q}]")
    items = [(label, foot) for label, foot in _path_items(n)
             if _ascending(n, character, secondary, label)]
    return _disjoint_family_complex(items, {"v": q - n, "e": n - p})


def descending_link_model(n: int, character: Character, secondary: int,
                          band: tuple) -> SimplicialComplex:
    """Moves that strictly lower the refined height, same band semantics."""
    return ascending_link_model(n, character.negated(), -secondary, band)
