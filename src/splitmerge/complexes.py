"""Finite abstract simplicial complexes and the link models used here.

Complexes are stored by their maximal simplices over hashable labels. The
labels appearing in practice are tagged tuples ("v", i) and ("e", i) for
foot/foot-pair positions, and (side, value, component) triples for nerves.
label_key orders labels once, in SimplicialComplex.vertices; simplices,
components and chain-complex cells are ordered by vertex positions there.
Builders whose families are maximal by construction (the disjoint-family
models here and the link routes of steinfarley) go through the trusted
SimplicialComplex._from_facets; every other family goes through _maximal.

The second half of the module builds matching complexes of linear graphs and
the combinatorial model of ascending links of cube-complex vertices: labels
("v", i) (split foot i) and ("e", i) (merge feet i, i+1) span a simplex when
their foot footprints are pairwise disjoint and the whole implied cube stays
inside the foot-count band. The facets are listed as Bron and Kerbosch list
maximal cliques (CACM 16, 1973): the recursion carries the excluded set of
skipped items that still fit, and stops once one of them can no longer be
blocked, by footprint or by its kind's band cap. Footprints are int bitmasks,
and a move's direction is the sign of its height change in the character's
scaled integer form, so the model compares integers only; a descending
model flips that sign instead of building the negated character.
"""

from __future__ import annotations

import functools
from itertools import combinations

from .characters import Character, MorseSpec


def label_key(label):
    """Total order on the label kinds used across the package."""
    if isinstance(label, frozenset):
        return (3, tuple(sorted(label_key(x) for x in label)))
    if isinstance(label, tuple):
        return (2, tuple(map(label_key, label)))
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
        increasing tuples of vertex positions: the vertices by position,
        the higher faces taken from each facet."""
        top = min(top, self.dim())
        if top < 0:
            return []
        pos = {v: i for i, v in enumerate(self.vertices)}
        levels: list = [set() for _ in range(top)]  # dimensions 1..top
        at = pos.__getitem__
        for f in self.facets:
            ps = sorted(map(at, f))
            for k in range(1, min(len(ps), top + 1)):
                levels[k - 1].update(combinations(ps, k + 1))
        return [[(i,) for i in range(len(pos))]] + list(map(sorted, levels))

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
    # sets of items are bitmasks over their indices; without caps, items
    # are of one kind that never runs out of room
    kinds = [label[0] if caps is not None else None for label, _ in items]
    room = dict(caps) if caps is not None else {None: len(items)}
    of_kind: dict = {}
    clash = []  # clash[k]: the items whose footprints meet item k's
    for k, (_, foot) in enumerate(items):
        of_kind[kinds[k]] = of_kind.get(kinds[k], 0) | 1 << k
        clash.append(sum([1 << j for j, (_, other) in enumerate(items)
                          if foot & other]))
    after = [0] * len(items)  # after[k]: what the items after k clash with
    for k in range(len(items) - 2, -1, -1):
        after[k] = after[k + 1] | clash[k + 1]

    def grow(cand: int, excl: int, current: list):
        # cand: the fitting items after the last one taken; excl: the
        # fitting items skipped before it (Bron-Kerbosch's excluded set)
        while cand:
            low = cand & -cand
            cand ^= low
            k = low.bit_length() - 1
            kind = kinds[k]
            room[kind] -= 1
            drop = clash[k] if room[kind] else clash[k] | of_kind[kind]
            sub, fit = cand & ~drop, excl & ~drop
            current.append(items[k][0])
            # stop once an item of fit can no longer be blocked: no item
            # after k meets it, and its kind has more room than sub fills
            free = fit & ~after[k]
            if not sub:
                if not fit:
                    facets.append(frozenset(current))
            elif not free or not any(
                    free & mask and room[kd] > (sub & mask).bit_count()
                    for kd, mask in of_kind.items()):
                grow(sub, fit, current)
            current.pop()
            room[kind] += 1
            excl |= low

    grow(sum(mask for kind, mask in of_kind.items() if room[kind] > 0), 0, [])
    return SimplicialComplex._from_facets(facets)


def _path_items(n: int, splits: bool = True) -> list:
    """("v", i) over foot i and ("e", i) over feet i, i+1 of an n-path."""
    if type(n) is not int or n < 0:
        raise ValueError(f"n is {n!r}, not an int >= 0")
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


def ascending_link_model(n: int, character: Character, secondary: int,
                         band: tuple) -> SimplicialComplex:
    """Model of the ascending link of any n-foot vertex, band-restricted.

    A set of moves spans a simplex when footprints are disjoint and the
    whole cube they span stays inside the band: n + #splits <= q and
    n - #merges >= p. The band caps prune the disjoint-family recursion.
    The spec is checked as MorseSpec checks it, and n must be an int.
    """
    return _link_model(n, character, secondary, band, 1)


def descending_link_model(n: int, character: Character, secondary: int,
                          band: tuple) -> SimplicialComplex:
    """Moves that strictly lower the refined height, same band semantics."""
    return _link_model(n, character, secondary, band, -1)


def _link_model(n, character, secondary, band, sign) -> SimplicialComplex:
    """Checks the spec on every call; lists the ascending items once per
    (n, character, secondary, p, q, sign), in _model_for, and builds once
    per (items, q - n, n - p), which positive multiples of a character
    share. Only (sign a, sign b) of chi matter, and sign(a + b) at n = 2:
    move_delta is (0, 0) off the end feet, so an inner move goes by the
    secondary, while split 1, split n, merge 1 and merge n - 1 change chi
    by -a, -b, +a, +b (merge 1 by a + b at n = 2, moving both ends). ints
    keeps signs; a zero change defers to secondary."""
    if type(n) is not int:
        raise ValueError(f"feet count must be an int, got {n!r}")
    p, q = MorseSpec(character, secondary, band).band
    if not p <= n <= q:
        raise ValueError(f"feet {n} outside band [{p},{q}]")
    return _model_for(n, character, secondary, p, q, sign)


@functools.lru_cache(maxsize=1024)
def _model_for(n, character, secondary, p, q, sign) -> SimplicialComplex:
    # a move ascends (descends, for sign -1) when sign * (d chi, secondary *
    # d feet) > (0, 0) in order; the character's integer form gives d chi
    a, b = character.ints
    items = []
    for label, foot in _path_items(n):
        d0, d1 = move_delta(n, label)
        dfeet = 1 if label[0] == "v" else -1
        if (sign * (a * d0 + b * d1), sign * secondary * dfeet) > (0, 0):
            items.append((label, foot))
    return _model_complex(tuple(items), q - n, n - p)


@functools.lru_cache(maxsize=1024)
def _model_complex(items: tuple, splits: int, merges: int):
    return _disjoint_family_complex(items, {"v": splits, "e": merges})
