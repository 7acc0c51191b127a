"""Local geometry of the diagram cube complex.

Vertices are reduced one-head diagrams. An elementary move splits one foot
or merges two adjacent feet; a cube is a family of such moves at pairwise
disjoint feet. Everything here is windowed by a feet band (p, q) and,
optionally, a character superlevel constraint, so that only finite
fragments of the complex are ever materialized.

explore steps its moves on one call's interned forests (_Forests) and
builds a Diagram only for a vertex it enters. It hands its Fragment those
tables, with the keys and move maps, as trusted (vertices are banded moves
of checked seeds, each indexed once); caller-built fragments check and
intern each vertex. Missing edges join unexpanded vertices, whose splits
are stepped and looked up by key. Banded moves and their inverses come
from one table per (feet, band); cubes grow from the split edges; cover
labels are read once per vertex. to_json renders each distinct forest
once while it is among the last 1024, and otherwise joins it from trees
still among the last 1024 rendered.

Coface words are strings over I (foot untouched), L (foot split) and V
(two adjacent feet merged); reading left to right, I and L consume one
foot and V consumes two. Cells inside a fragment are stored from their
fewest-feet corner, whose word therefore uses only I and L (a vertex is its
all-I word); Fragment.faces is the one face rule for all of them, and
lists a cell's (back, front) faces across every axis in one call.

Ascending (descending) links are read off the actual neighbor diagrams:
each banded move is compared by refined height with the vertex, the
strictly ascending (descending) ones become split and merge bitmasks, and a
letter outside them is pruned inside the coface recursion, with every word
below it; only the maximal words, the link's facets, are listed. This route
shares no code with the disjoint-family models of complexes, which tests
compare it against. The (chi0, chi1) of a vertex and of all its neighbors
are computed once per vertex and shared by both links and every spec;
heights are compared in the character's scaled integer form, as is the
explore floor, so Fractions appear only in the values a Fragment prints.
Each link type (feet, band, masks) is built once while among the last 1024.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .diagrams import (Diagram, apply_move, foot_surgery, invert_move,
                       is_reduced, merge_feet, split_foot)
from .characters import MorseSpec, chi0, chi1, count_left, count_right
from .complexes import SimplicialComplex, connected_groups


def L_value(x: Diagram) -> int:
    """Caret depth of the leftmost leaf of the head tree."""
    return count_left(x.minus)


def R_value(x: Diagram) -> int:
    """Caret depth of the rightmost leaf of the head tree."""
    return count_right(x.minus)


def _check_band(band) -> tuple:
    """(p, q) of a band of two ints with 1 <= p <= q; ValueError naming the
    band for anything else, a bool included."""
    try:
        p, q = band
    except (TypeError, ValueError):
        p = q = None
    if not (type(p) is type(q) is int and 1 <= p <= q):
        raise ValueError(f"invalid band {band!r}: want two ints 1 <= p <= q")
    return p, q


def check_vertex(x: Diagram, band) -> None:
    p, q = _check_band(band)
    if x.heads != 1:
        raise ValueError("complex vertices have exactly one head")
    if not is_reduced(x):
        raise ValueError(f"vertex is not reduced: {x}")
    if not p <= x.feet <= q:
        raise ValueError(f"vertex has {x.feet} feet, outside band {band}")


def moves_in_band(x: Diagram, band) -> tuple:
    """Banded moves at x: splits, then merges, each foot-ascending."""
    p, q = band
    return _band_moves(x.feet, p, q)[0]


@functools.lru_cache(maxsize=1024)
def _band_moves(f: int, p: int, q: int) -> tuple:
    """(moves, (move, inverse) pairs) at an f-foot vertex in band (p, q)."""
    splits = tuple(("s", i) for i in range(1, f + 1)) if f + 1 <= q else ()
    merges = tuple(("m", i) for i in range(1, f)) if f - 1 >= p else ()
    moves = splits + merges
    return moves, tuple(zip(moves, map(invert_move, moves)))


def neighbors(x: Diagram, band) -> list:
    """Vertices one elementary move away, staying in the band."""
    check_vertex(x, band)
    return [apply_move(x, move) for move in moves_in_band(x, band)]


def cofaces(x: Diagram, band) -> list:
    """All coface words at x whose whole cube stays inside the band.

    The trivial all-I word (the vertex itself) is included.
    """
    return _coface_words(x.feet, _check_band(band))


def _coface_words(f: int, band, masks=None, maximal=False) -> list:
    """Banded coface words of f feet, depth first, I before L before V.

    masks, when given, is (splits, merges) from _monotone_masks: an L at
    foot i needs bit i of splits and a V at feet i, i+1 bit i of merges. A
    rejected letter is pruned with every word below it. maximal keeps only
    the words no listed word extends: no single I -> L and no single
    II -> V is allowed and within the band caps. One change is enough to
    test, as every subset of a listed family is listed.
    """
    p, q = band
    if not p <= f <= q:
        raise ValueError(f"vertex has {f} feet, outside band {band}")
    # bit i: an L at foot i (a V at feet i, i + 1) is allowed
    split_ok, merge_ok = masks or ((2 << f) - 2, (1 << f) - 2)
    words: list = []

    def grow(i, prefix, splits, merges, free):
        # i feet consumed so far, a V consuming two; splits and merges are
        # the moves the band still allows; free has bit j when foot j is
        # untouched. A maximal branch stops once a free split or merge
        # stays allowed however the f - i feet left are used
        if maximal and (free & split_ok and splits > f - i or
                        free & free >> 1 & merge_ok and merges > (f - i) // 2):
            return
        if i == f:
            words.append("".join(prefix))
            return
        prefix.append("I")
        grow(i + 1, prefix, splits, merges, free | 2 << i)
        prefix.pop()
        if splits and split_ok >> i & 2:
            prefix.append("L")
            grow(i + 1, prefix, splits - 1, merges, free)
            prefix.pop()
        if i + 2 <= f and merges and merge_ok >> i & 2:
            prefix.append("V")
            grow(i + 2, prefix, splits, merges - 1, free)
            prefix.pop()

    grow(0, [], q - f, f - p, 0)
    return words


def word_labels(word: str) -> tuple:
    """Link-model labels of a coface word: L at foot i -> (v, i), V -> (e, i)."""
    labels = []
    i = 1
    for ch in word:
        if ch == "I":
            i += 1
        elif ch == "L":
            labels.append(("v", i))
            i += 1
        elif ch == "V":
            labels.append(("e", i))
            i += 2
        else:
            raise ValueError(f"bad coface letter {ch!r}")
    return tuple(labels)


def apply_labels(x: Diagram, labels) -> Diagram:
    """Apply a disjoint family of labeled moves; rightmost feet first."""
    cur = x
    for kind, pos in sorted(labels, key=lambda lab: -lab[1]):
        if kind == "v":
            cur = split_foot(cur, pos)
        elif kind == "e":
            cur = merge_feet(cur, pos)
        else:
            raise ValueError(f"bad move label {(kind, pos)!r}")
    return cur


def link_of(x: Diagram, band) -> SimplicialComplex:
    """Banded link of a vertex: one simplex per nontrivial coface word,
    built from the maximal words alone."""
    return _link_complex(x.feet, _check_band(band), None)


@functools.lru_cache(maxsize=1024)
def _link_complex(f: int, band: tuple, masks) -> SimplicialComplex:
    """The maximal coface words' complex; a cached key met the band check."""
    return SimplicialComplex._from_facets(s for s in map(frozenset, map(
        word_labels, _coface_words(f, band, masks, maximal=True))) if s)


def _neighbor_table(x: Diagram) -> tuple:
    """Flat (chi0, chi1) of x, then of split_foot(x, i) for i = 1..f, then
    of merge_feet(x, i) for i = 1..f-1; built once and kept on x."""
    try:
        return x._nbr_chi
    except AttributeError:
        f = x.feet
        ys = ([x] + [split_foot(x, i) for i in range(1, f + 1)]
              + [merge_feet(x, i) for i in range(1, f)])
        table = tuple(c for y in ys for c in (chi0(y), chi1(y)))
        object.__setattr__(x, "_nbr_chi", table)
        return table


def _monotone_masks(x: Diagram, spec: MorseSpec, down: bool) -> tuple:
    """(splits, merges): bit i is set when the banded split_foot(x, i)
    (merge_feet(x, i)) strictly ascends (descends) in refined height.
    ValueError naming the spec or the vertex when it has the wrong type."""
    if not isinstance(spec, MorseSpec):
        raise ValueError(f"invalid spec {spec!r}: want a MorseSpec")
    if not isinstance(x, Diagram):
        raise ValueError(f"invalid vertex {x!r}: want a Diagram")
    table = _neighbor_table(x)
    a, b = spec.character.ints
    f, sec = x.feet, spec.secondary
    h = (a * table[0] + b * table[1], sec * f)
    masks = [0, 0]
    for kind, i in moves_in_band(x, spec.band):
        # split i sits at 2i, merge i after the f splits, at 2(f + i)
        k, df = (2 * i, 1) if kind == "s" else (2 * (f + i), -1)
        hy = (a * table[k] + b * table[k + 1], sec * (f + df))
        if hy < h if down else hy > h:
            masks[df < 0] |= 1 << i
    return tuple(masks)


def ascending_link(x: Diagram, spec: MorseSpec, down: bool = False
                   ) -> SimplicialComplex:
    """Subcomplex of the banded link on cofaces all of whose moves ascend.

    Heights are computed on the actual neighbor diagrams, independently of
    the combinatorial link model; a non-ascending letter is pruned inside
    the coface recursion, so no word through it is ever listed, and only
    the maximal words become simplices, once per (feet, band, masks).
    """
    masks = _monotone_masks(x, spec, down)
    return _link_complex(x.feet, spec.band, masks)


def descending_link(x: Diagram, spec: MorseSpec) -> SimplicialComplex:
    return ascending_link(x, spec, down=True)


def monotone_cofaces(x: Diagram, spec: MorseSpec, down: bool = False) -> list:
    """Coface words whose moves all strictly ascend (or descend).

    The trivial word qualifies vacuously; the result is the closed star of
    x in the ascending (descending) direction, in the order of cofaces.
    """
    masks = _monotone_masks(x, spec, down)
    return _coface_words(x.feet, spec.band, masks)


# ---------------------------------------------------------------------------
# fragments

class _Forests:
    """One call's forests under int ids; a vertex key is (minus id, plus
    id). step runs foot_surgery once per (plus id, move) and a head step
    once per (minus id, head, leaf), for as long as the call runs."""

    def __init__(self):
        self.ids, self.forests, self.depths = {}, [], []
        self._feet, self._heads = {}, {}

    def id(self, forest):
        """The forest's id (None for None), its depths kept at that id."""
        k = self.ids.get(forest)
        if k is None and forest is not None:
            k = self.ids[forest] = len(self.forests)
            self.forests.append(forest)
            self.depths.append((count_left(forest), count_right(forest)))
        return k

    def step(self, key, move) -> tuple:
        """The key of the move's target from the vertex with this key."""
        m, p = key
        feet = self._feet.get((p, move))
        if feet is None:
            head, j, *sides = foot_surgery(self.forests[p], move)
            feet = self._feet[p, move] = head, j, *map(self.id, sides)
        head, j, stepped, unstepped = feet
        if head is None:
            return m, unstepped
        h = self._heads.get((m, head, j), -1)  # None: no caret to cancel
        if h == -1:
            h = self._heads[m, head, j] = self.id(head(self.forests[m], j))
        return (m, unstepped) if h is None else (h, stepped)


def _doubled(word: str, p: int) -> str:
    # the far side of split p: foot p is two feet, neither of them split
    return word[:p - 1] + "II" + word[p:]


class Fragment:
    """Immutable finite window of the cube complex.

    Vertices are stored in discovery order, and index maps each vertex
    Diagram (hashed by its two forests) to its position. Edges, moves, and
    cubes are the ones induced on that vertex set, the missing ones found
    by key through a _Forests. Cell words use I/L only, read from the
    cell's fewest-feet corner.
    """

    __slots__ = ("vertices", "index", "band", "chi_floor", "characters",
                 "provenance", "moves", "edges", "chi0_values", "chi1_values",
                 "feet_values", "L_values", "R_values", "chi_values",
                 "_cubes")

    def __init__(self, vertices, band, chi_floor=None, characters=(),
                 provenance=None, *, _explored=None):
        # _explored = (forests, keys, moves, done) from explore: its
        # _Forests, the {key: index} of every vertex, and one move map per
        # vertex, complete for the first done vertices and holding every
        # edge to them for the rest
        self.vertices = list(vertices)
        self.band = _check_band(band)
        self.chi_floor = chi_floor
        self.characters = tuple(characters)
        self.provenance = provenance or {}
        if _explored is None:
            forests, keys = _Forests(), {}
            for i, d in enumerate(self.vertices):
                check_vertex(d, self.band)
                key = forests.id(d.minus), forests.id(d.plus)
                if keys.setdefault(key, i) != i:
                    raise ValueError(f"duplicate vertex {d.canon}")
            self.moves, done = [{} for _ in self.vertices], 0
        else:
            forests, keys, self.moves, done = _explored
        self.index = {d: i for i, d in enumerate(self.vertices)}
        at, depths = list(keys), forests.depths
        ends = [(depths[m], depths[p]) for m, p in at]  # (L, R) of each side
        self.chi0_values = [f[0] - h[0] for h, f in ends]
        self.chi1_values = [f[1] - h[1] for h, f in ends]
        self.feet_values = [d.feet for d in self.vertices]
        self.L_values = [h[0] for h, _ in ends]
        self.R_values = [h[1] for h, _ in ends]
        # an edge is a split at its fewer-feet end, which the inverse merge
        # undoes, so the unexpanded vertices' splits find the missing ones
        q = self.band[1]
        for i in range(done, len(at)):
            f, mv = self.feet_values[i], self.moves[i]
            for j in range(1, f + 1 if f < q else 1):
                if ("s", j) not in mv:
                    k = keys.get(forests.step(at[i], ("s", j)))
                    if k is not None:
                        mv["s", j] = k
                        self.moves[k]["m", j] = i
        tracked = self.characters + ((chi_floor[0],) if chi_floor else ())
        self.chi_values = {str(c): [
            Fraction(c.ints[0] * c0 + c.ints[1] * c1, c.scale)
            for c0, c1 in zip(self.chi0_values, self.chi1_values)]
            for c in tracked}
        self.edges = [(i, j) for i, mv in enumerate(self.moves)
                      for (kind, _), j in sorted(mv.items()) if kind == "s"]
        self._cubes = None

    def step(self, i: int, move) -> int:
        """Index of the move's target; KeyError if it left the fragment."""
        return self.moves[i][move]

    @property
    def cubes(self) -> list:
        """(base_index, I/L word) for every cube of dimension >= 1."""
        if self._cubes is None:
            self._cubes = self._find_cubes()
        return self._cubes

    def _find_cubes(self) -> list:
        # level k + 1 grows from level k: adding an axis m right of every L
        # of a k-cube (i, word) gives a cube exactly when the new cube's
        # front face across m, (step(i, m), word with foot m doubled), is a
        # k-cube too; the axes left of m keep their positions after split m.
        # Level 1 is every split edge, as the far end of a split is a vertex
        level = {(i, "I" * (m - 1) + "L" + "I" * (f - m))
                 for i, (f, mv) in enumerate(zip(self.feet_values, self.moves))
                 for kind, m in mv if kind == "s"}
        found = sorted(level)
        while level:
            grown = set()
            for i, word in level:
                mv = self.moves[i]
                for m in range(word.rfind("L") + 2, len(word) + 1):
                    j = mv.get(("s", m))
                    if j is not None and (j, _doubled(word, m)) in level:
                        grown.add((i, word[:m - 1] + "L" + word[m:]))
            found += sorted(grown)
            level = grown
        return found

    def corners(self, base: int, word: str) -> list:
        """Vertex indices of the cell's 2^k corners: base (the fewest-feet
        corner) first, the most-feet corner (every split applied) last. A
        vertex's only corner is [base]."""
        corners = [base]
        for p in range(len(word), 0, -1):  # the axes: feet with an L
            if word[p - 1] == "L":
                corners += [self.step(i, ("s", p)) for i in corners]
        return corners

    def faces(self, base: int, word: str) -> list:
        """(back, front) faces of the cell across each axis, in axis order:
        the L at foot p becomes I at base, and II at the far end of split
        p. A vertex has none."""
        mv, out = self.moves[base], []
        at = word.find("L")  # the L at foot p = at + 1
        while at >= 0:
            head, tail = word[:at], word[at + 1:]
            out.append(((base, f"{head}I{tail}"),
                        (mv["s", at + 1], f"{head}II{tail}")))
            at = word.find("L", at + 1)
        return out

    def cells(self) -> list:
        """Every cell as (base, I/L word), by dimension (the number of L
        letters), then base, then word. A vertex is (i, all-I word)."""
        return [(i, "I" * f)
                for i, f in enumerate(self.feet_values)] + self.cubes

    def components(self) -> list:
        return connected_groups(range(len(self.vertices)), self.edges)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def to_json(self) -> dict:
        verts = []
        tracked = sorted(self.chi_values.items())
        for i, d in enumerate(self.vertices):
            chi_map = {key: str(vals[i]) for key, vals in tracked}
            chi_map.setdefault("1,0", str(self.chi0_values[i]))
            chi_map.setdefault("0,1", str(self.chi1_values[i]))
            verts.append({
                "diagram": d.canon,
                "feet": self.feet_values[i],
                "chi": chi_map,
                "L": self.L_values[i],
                "R": self.R_values[i],
            })
        return {
            "provenance": self.provenance,
            "vertices": verts,
            "edges": [[i, j] for i, j in self.edges],
            "cubes": [{"base": i, "word": word.replace("L", "Λ")}
                      for i, word in self.cubes],
        }


def explore(seeds, band, chi_floor=None, characters=(),
            max_vertices: int = 100000, max_radius=None) -> Fragment:
    """Breadth-first closure of seed vertices under banded elementary moves.

    chi_floor is an optional (Character, threshold) pair; vertices below
    the threshold are not entered. Exploration is deterministic: seeds in
    input order, then moves in split-then-merge, foot-ascending order, and
    truncation by max_vertices keeps any shorter run as a prefix.
    """
    p, q = _check_band(band)
    if not (type(max_vertices) is int and max_vertices >= 0):
        raise ValueError(f"max_vertices is {max_vertices!r}, not an int >= 0")
    if not (max_radius is None
            or type(max_radius) is int and max_radius >= 0):
        raise ValueError(f"max_radius is {max_radius!r}, not None or int >= 0")
    if chi_floor is not None:
        char, threshold = chi_floor
        chi_floor = (char, Fraction(threshold))
        # chi >= t exactly when the scaled height reaches ceil(t * scale)
        (fa, fb), floor = char.ints, math.ceil(chi_floor[1] * char.scale)

    forests = _Forests()
    forest, depths, step = forests.forests, forests.depths, forests.step

    def admissible(key):
        (h0, h1), (f0, f1) = depths[key[0]], depths[key[1]]
        return chi_floor is None or fa * (f0 - h0) + fb * (f1 - h1) >= floor

    vertices, keys, at, moves = [], {}, [], []

    def enter(key):
        # the index of a new vertex, or None once the budget is spent
        j = len(vertices)
        if j >= max_vertices:
            return None
        keys[key] = j
        at.append(key)
        vertices.append(Diagram._make(forest[key[0]], forest[key[1]]))
        moves.append({})
        return j

    truncated = False
    for d in seeds:
        check_vertex(d, band)
        key = forests.id(d.minus), forests.id(d.plus)
        if not admissible(key):
            raise ValueError(f"seed below the character floor: {d}")
        if key not in keys and enter(key) is None:
            truncated = True
            break

    # BFS levels are runs of consecutive indices, expanded in index order;
    # each edge is stepped once and recorded at both ends
    level = range(len(vertices))
    radius = radius_completed = expanded = 0
    while level and not truncated:
        if max_radius is not None and radius >= max_radius:
            break
        for i in level:
            key, mv = at[i], moves[i]
            for move, back in _band_moves(vertices[i].feet, p, q)[1]:
                if move in mv:
                    continue
                y = step(key, move)
                j = keys.get(y)
                if j is None:
                    if not admissible(y):
                        continue
                    j = enter(y)
                    if j is None:
                        truncated = True
                        break
                mv[move] = j
                moves[j][back] = i
            if truncated:
                break
            expanded = i + 1
        radius += 1
        if not truncated:
            radius_completed = radius
        level = range(level.stop, len(vertices))

    provenance = {
        "seeds": [d.canon for d in seeds],
        "band": [p, q],
        "chi_floor": None if chi_floor is None else {
            "character": str(chi_floor[0]), "min": str(chi_floor[1])},
        "characters": [str(c) for c in characters],
        "max_vertices": max_vertices,
        "max_radius": max_radius,
        "truncated": truncated,
        "radius_completed": radius_completed,
    }
    return Fragment(vertices, band, chi_floor=chi_floor,
                    characters=characters, provenance=provenance,
                    _explored=(forests, keys, moves, expanded))


# ---------------------------------------------------------------------------
# the two-sided depth cover and its nerve

def nerve_data(frag: Fragment) -> dict:
    """Cover pieces, their in-fragment components, and the nerve graph.

    A cell's labels are read off at its most-feet corner x = (T/E): (L,
    depth of T's leftmost leaf) when E has a caret on its left edge, and
    (R, the rightmost analogue) when E has one on its right edge. In the
    cover regime (band start >= 2, a nonnegative floor for a character with
    a, b > 0) every cell gets one. A piece is the set of cells sharing one
    (side, value) label; its components join cells that share a corner
    vertex. Nerve vertices are (side, value, component) triples; nerve edges
    come from cells carrying two labels. Checks the disjointness invariant:
    same-side labels of different values never touch a common vertex.
    """
    cells = frag.cells()
    floor = frag.chi_floor
    if cells and (floor is None or floor[0].a <= 0 or floor[0].b <= 0
                  or floor[1] < 0 or frag.band[0] < 2):
        raise ValueError(
            "cover labels need a fragment explored with band start >= 2 and "
            "a nonnegative floor for a character with a > 0 and b > 0")
    vertex_labels = [
        tuple(label for label, carets in (
            (("L", left), count_left(x.plus)),
            (("R", right), count_right(x.plus))) if carets > 0)
        for x, left, right in zip(frag.vertices, frag.L_values,
                                  frag.R_values)]
    corner_lists = [frag.corners(base, word) for base, word in cells]
    labels = [vertex_labels[corners[-1]] for corners in corner_lists]
    for corners, labs in zip(corner_lists, labels):
        if not labs:
            raise ValueError(f"cell at {frag.vertices[corners[-1]]} "
                             "received no cover label")

    by_corner_side = {}
    for ci, labs in enumerate(labels):
        for side, value in labs:
            for v in corner_lists[ci]:
                prev = by_corner_side.setdefault((v, side), value)
                if prev != value:
                    raise AssertionError(
                        f"cover pieces ({side},{prev}) and ({side},{value}) "
                        f"share vertex {frag.vertices[v]}")

    piece_cells = {}
    for ci, labs in enumerate(labels):
        for lab in labs:
            piece_cells.setdefault(lab, []).append(ci)

    cell_component = {}
    piece_components = {}
    for lab, members in sorted(piece_cells.items()):
        # a piece's cells join through their corner vertices, so classes
        # come in order of first cell and list their cells in order
        corners = [corner_lists[ci] for ci in members]
        classes = connected_groups(
            dict.fromkeys(v for c in corners for v in c), corners)
        root = {v: k for k, group in enumerate(classes) for v in group}
        piece_components[lab] = ordered = [[] for _ in classes]
        for ci, c in zip(members, corners):
            cell_component[lab, ci] = k = root[c[0]]
            ordered[k].append(ci)

    cell_nerve_vertices = [
        tuple((side, value, cell_component[((side, value), ci)])
              for side, value in labs)
        for ci, labs in enumerate(labels)]
    complex_ = SimplicialComplex(cell_nerve_vertices)
    for edge in complex_.k_simplices(1):
        sides = {side for side, _, _ in edge}
        if sides != {"L", "R"}:
            raise AssertionError(f"nerve edge {edge} is not bipartite")
    return {
        "cells": cells,
        "labels": labels,
        "piece_components": piece_components,
        "cell_nerve_vertices": cell_nerve_vertices,
        "complex": complex_,
    }
