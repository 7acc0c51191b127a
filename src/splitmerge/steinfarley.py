"""Local geometry of the diagram cube complex.

Vertices are reduced one-head diagrams. An elementary move splits one foot
or merges two adjacent feet; a cube is a family of such moves at pairwise
disjoint feet. Everything here is windowed by a feet band (p, q) and,
optionally, a character superlevel constraint, so that only finite
fragments of the complex are ever materialized.

explore hands its Fragment its index and move maps as trusted (vertices
are banded moves of checked seeds, each indexed once); caller-built
fragments check both. Missing edges join unexpanded vertices, and only
splits to some unexpanded vertex's key (_split_key) are applied. to_json
renders each distinct forest once while it is among the last 1024.

Coface words are strings over I (foot untouched), L (foot split) and V
(two adjacent feet merged); reading left to right, I and L consume one
foot and V consumes two. Cells inside a fragment are stored from their
fewest-feet corner, whose word therefore uses only I and L (a vertex is its
all-I word); Fragment.faces is the one face rule for all of them.

Ascending (descending) links are read off the actual neighbor diagrams:
each banded move is compared by refined height with the vertex, and a
letter whose move does not strictly ascend (descend) is pruned inside the
coface recursion, with every word below it, and only the maximal words,
the link's facets, are listed. This route shares no code with the
disjoint-family models of complexes, which tests compare it against.
The (chi0, chi1) of a vertex and of all its neighbors are computed once per
vertex and shared by both links and every spec; heights are compared in
the character's scaled integer form, as is the explore floor, so Fractions
appear only in the values a Fragment prints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .trees import forest_num_carets
from .diagrams import (Diagram, apply_move, invert_move, is_reduced,
                       merge_feet, split_foot)
from .characters import MorseSpec, chi0, chi1, count_left, count_right
from .complexes import SimplicialComplex, connected_groups


def L_value(x: Diagram) -> int:
    """Caret depth of the leftmost leaf of the head tree."""
    return count_left(x.minus)


def R_value(x: Diagram) -> int:
    """Caret depth of the rightmost leaf of the head tree."""
    return count_right(x.minus)


def check_vertex(x: Diagram, band) -> None:
    p, q = band
    if not 1 <= p <= q:
        raise ValueError(f"invalid band {band}")
    if x.heads != 1:
        raise ValueError("complex vertices have exactly one head")
    if not is_reduced(x):
        raise ValueError(f"vertex is not reduced: {x}")
    if not p <= x.feet <= q:
        raise ValueError(f"vertex has {x.feet} feet, outside band {band}")


def moves_in_band(x: Diagram, band) -> list:
    p, q = band
    f = x.feet
    moves = []
    if f + 1 <= q:
        moves.extend(("s", i) for i in range(1, f + 1))
    if f - 1 >= p:
        moves.extend(("m", i) for i in range(1, f))
    return moves


def neighbors(x: Diagram, band) -> list:
    """Vertices one elementary move away, staying in the band."""
    check_vertex(x, band)
    return [apply_move(x, move) for move in moves_in_band(x, band)]


def cofaces(x: Diagram, band) -> list:
    """All coface words at x whose whole cube stays inside the band.

    The trivial all-I word (the vertex itself) is included.
    """
    return _coface_words(x, band)


def _coface_words(x: Diagram, band, allowed=None, maximal=False) -> list:
    """Banded coface words at x, depth first, I before L before V.

    allowed, when given, is the set of link labels a word may use: an L at
    foot i needs ("v", i) in it and a V at feet i, i+1 needs ("e", i). A
    rejected letter is pruned with every word below it. maximal keeps only
    the words no listed word extends: no single I -> L and no single
    II -> V is allowed and within the band caps. One change is enough to
    test, as every subset of a listed family is listed.
    """
    f = x.feet
    p, q = band
    if not p <= f <= q:
        raise ValueError(f"vertex has {f} feet, outside band {band}")
    # bit i: an L at foot i (a V at feet i, i + 1) is allowed
    split_ok, merge_ok = (2 << f) - 2, (1 << f) - 2
    if allowed is not None:
        split_ok = sum(1 << i for kind, i in allowed if kind == "v")
        merge_ok = sum(1 << i for kind, i in allowed if kind == "e")
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
    return _facet_complex(_coface_words(x, band, maximal=True))


def _facet_complex(words) -> SimplicialComplex:
    return SimplicialComplex._from_facets(
        s for s in map(frozenset, map(word_labels, words)) if s)


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


def _label_directions(x: Diagram, spec: MorseSpec) -> dict:
    """Link label of each banded move -> -1, 0 or +1 as the refined height
    of the neighbor it reaches compares to x's."""
    table = _neighbor_table(x)
    a, b = spec.character.ints
    f, sec = x.feet, spec.secondary
    h = (a * table[0] + b * table[1], sec * f)
    directions = {}
    for kind, i in moves_in_band(x, spec.band):
        # split i sits at 2i, merge i after the f splits, at 2(f + i)
        k, df = (2 * i, 1) if kind == "s" else (2 * (f + i), -1)
        hy = (a * table[k] + b * table[k + 1], sec * (f + df))
        directions["v" if kind == "s" else "e", i] = (hy > h) - (hy < h)
    return directions


def ascending_link(x: Diagram, spec: MorseSpec, down: bool = False
                   ) -> SimplicialComplex:
    """Subcomplex of the banded link on cofaces all of whose moves ascend.

    Heights are computed on the actual neighbor diagrams, independently of
    the combinatorial link model; a non-ascending letter is pruned inside
    the coface recursion, so no word through it is ever listed, and only
    the maximal words become simplices.
    """
    return _facet_complex(_coface_words(
        x, spec.band, _monotone_labels(x, spec, down), maximal=True))


def descending_link(x: Diagram, spec: MorseSpec) -> SimplicialComplex:
    return ascending_link(x, spec, down=True)


def monotone_cofaces(x: Diagram, spec: MorseSpec, down: bool = False) -> list:
    """Coface words whose moves all strictly ascend (or descend).

    The trivial word qualifies vacuously; the result is the closed star of
    x in the ascending (descending) direction, in the order of cofaces.
    """
    return _coface_words(x, spec.band, _monotone_labels(x, spec, down))


def _monotone_labels(x: Diagram, spec: MorseSpec, down: bool) -> set:
    """Labels of the banded moves that strictly ascend (or descend)."""
    want = -1 if down else 1
    return {label for label, d in _label_directions(x, spec).items()
            if d == want}


# ---------------------------------------------------------------------------
# fragments

def cube_axes(word: str) -> list:
    """Axes of a cube word: the 1-based feet its L letters split."""
    return [i + 1 for i, ch in enumerate(word) if ch == "L"]


def _split_key(d: Diagram, key: tuple, j: int) -> tuple:
    """(feet, foot carets, chi0, chi1, L, R) of split_foot(d, j) from d's:
    a caret foot gives up its caret, a leaf foot adds one to the head, at
    its leftmost (rightmost) leaf for j = 1 (f), where chi0 (chi1) drops."""
    f, carets, c0, c1, left, right = key
    leaf = d.plus[j - 1] == ()
    return (f + 1, carets - (not leaf), c0 - (j == 1), c1 - (j == f),
            left + (j == 1 and leaf), right + (j == f and leaf))


def _doubled(word: str, p: int) -> str:
    # the far side of split p: foot p is two feet, neither of them split
    return word[:p - 1] + "II" + word[p:]


class Fragment:
    """Immutable finite window of the cube complex.

    Vertices are stored in discovery order, and index maps each vertex
    Diagram (hashed by its two forests) to its position. Edges, moves, and
    cubes are the ones induced on that vertex set. Cell words use I/L only,
    read from the cell's fewest-feet corner.
    """

    __slots__ = ("vertices", "index", "band", "chi_floor", "characters",
                 "provenance", "moves", "edges", "chi0_values", "chi1_values",
                 "feet_values", "L_values", "R_values", "chi_values",
                 "_cubes")

    def __init__(self, vertices, band, chi_floor=None, characters=(),
                 provenance=None, *, _explored=None):
        # _explored = (index, moves, done) from explore: the index of every
        # vertex, and one move map per vertex, complete for the first done
        # vertices and holding every edge to them for the rest
        self.vertices = list(vertices)
        self.band = (int(band[0]), int(band[1]))
        self.chi_floor = chi_floor
        self.characters = tuple(characters)
        self.provenance = provenance or {}
        self.index, self.moves, done = _explored or (
            {}, [{} for _ in self.vertices], 0)
        if _explored is None:
            for i, d in enumerate(self.vertices):
                check_vertex(d, self.band)
                if self.index.setdefault(d, i) != i:
                    raise ValueError(f"duplicate vertex {d.canon}")
        self.chi0_values = [chi0(d) for d in self.vertices]
        self.chi1_values = [chi1(d) for d in self.vertices]
        self.feet_values = [d.feet for d in self.vertices]
        self.L_values = [L_value(d) for d in self.vertices]
        self.R_values = [R_value(d) for d in self.vertices]
        # an edge is a split at its fewer-feet end, which the inverse merge
        # undoes; only splits to a key from done on can find a missing one
        rest = range(done, len(self.vertices))
        carets = [forest_num_carets(self.vertices[i].plus) for i in rest]

        def key(i):  # on demand, as holding one tuple per vertex costs memory
            return (self.feet_values[i], carets[i - done], self.chi0_values[i],
                    self.chi1_values[i], self.L_values[i], self.R_values[i])

        wanted = set(map(key, rest))
        for i in rest:
            d, mv, ki = self.vertices[i], self.moves[i], key(i)
            for j in range(1, d.feet + 1):
                if ("s", j) not in mv and _split_key(d, ki, j) in wanted:
                    k = self.index.get(split_foot(d, j))
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
        # k-cube too; the axes left of m keep their positions after split m
        level = {(i, "I" * f) for i, f in enumerate(self.feet_values)}
        found = []
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
        for p in reversed(cube_axes(word)):
            corners = corners + [self.step(i, ("s", p)) for i in corners]
        return corners

    def faces(self, base: int, word: str, p: int) -> tuple:
        """Back and front faces of the cell across axis p: the L at foot p
        becomes I at base, and II at the far end of split p."""
        return ((base, word[:p - 1] + "I" + word[p:]),
                (self.moves[base]["s", p], _doubled(word, p)))

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
        for i, d in enumerate(self.vertices):
            chi_map = {key: str(vals[i])
                       for key, vals in sorted(self.chi_values.items())}
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
    p, q = band
    if not 1 <= p <= q:
        raise ValueError(f"invalid band {band}")
    if chi_floor is not None:
        char, threshold = chi_floor
        chi_floor = (char, Fraction(threshold))
        # chi >= t exactly when the scaled height reaches ceil(t * scale)
        (fa, fb), floor = char.ints, math.ceil(chi_floor[1] * char.scale)

    def admissible(d):
        return chi_floor is None or fa * chi0(d) + fb * chi1(d) >= floor

    vertices, index, moves = [], {}, []

    def enter(y) -> bool:
        # index a new vertex; False once the budget is spent
        if len(vertices) >= max_vertices:
            return False
        index[y] = len(vertices)
        vertices.append(y)
        moves.append({})
        return True

    truncated = False
    for d in seeds:
        check_vertex(d, band)
        if not admissible(d):
            raise ValueError(f"seed below the character floor: {d}")
        if d not in index and not enter(d):
            truncated = True
            break

    # BFS levels are runs of consecutive indices, expanded in index order;
    # each edge is applied once and recorded at both ends
    level = range(len(vertices))
    radius = radius_completed = expanded = 0
    while level and not truncated:
        if max_radius is not None and radius >= max_radius:
            break
        for i in level:
            d, mv = vertices[i], moves[i]
            for move in moves_in_band(d, band):
                if move in mv:
                    continue
                y = apply_move(d, move)
                j = index.get(y)
                if j is None:
                    if not admissible(y):
                        continue
                    if not enter(y):
                        truncated = True
                        break
                    j = index[y]
                mv[move] = j
                moves[j][invert_move(move)] = i
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
                    _explored=(index, moves, expanded))


# ---------------------------------------------------------------------------
# the two-sided depth cover and its nerve

def _require_cover_regime(frag: Fragment) -> None:
    floor = frag.chi_floor
    if (floor is None or floor[0].a <= 0 or floor[0].b <= 0
            or floor[1] < 0 or frag.band[0] < 2):
        raise ValueError(
            "cover labels need a fragment explored with band start >= 2 and "
            "a nonnegative floor for a character with a > 0 and b > 0")


def cover_assign(cell, frag: Fragment) -> set:
    """Cover labels of a cell, read off at its most-feet corner x = (T/E).

    Emits (L, depth of T's leftmost leaf) when E carries a caret on its left
    edge, and (R, rightmost analogue) when E carries one on its right edge.
    In the cover regime at least one label is always emitted.
    """
    _require_cover_regime(frag)
    return _cover_labels(frag.vertices[frag.corners(*cell)[-1]])


def _cover_labels(x: Diagram) -> set:
    """cover_assign's labels, given the cell's most-feet corner x."""
    labels = set()
    if count_left(x.plus) > 0:
        labels.add(("L", L_value(x)))
    if count_right(x.plus) > 0:
        labels.add(("R", R_value(x)))
    if not labels:
        raise ValueError(f"cell at {x} received no cover label")
    return labels


def nerve_data(frag: Fragment) -> dict:
    """Cover pieces, their in-fragment components, and the nerve graph.

    A piece is the set of cells sharing one (side, value) label; its
    components join cells that share a corner vertex. Nerve vertices are
    (side, value, component) triples; nerve edges come from cells carrying
    two labels. Checks the disjointness invariant: same-side labels of
    different values never touch a common vertex.
    """
    cells = frag.cells()
    if cells:
        _require_cover_regime(frag)
    corner_lists = [frag.corners(base, word) for base, word in cells]
    labels = [tuple(sorted(_cover_labels(frag.vertices[corners[-1]])))
              for corners in corner_lists]

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
        touch = {}
        pairs = ((touch.setdefault(v, ci), ci)
                 for ci in members for v in corner_lists[ci])
        ordered = connected_groups(members, pairs)
        piece_components[lab] = ordered
        for k, comp in enumerate(ordered):
            for ci in comp:
                cell_component[(lab, ci)] = k

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
