"""Local geometry of the diagram cube complex.

Vertices are reduced one-head diagrams. An elementary move splits one foot
or merges two adjacent feet; a cube is a family of such moves at pairwise
disjoint feet. Everything here is windowed by a feet band (p, q) and,
optionally, a character superlevel constraint, so that only finite
fragments of the complex are ever materialized.

Coface words are strings over I (foot untouched), L (foot split) and V
(two adjacent feet merged); reading left to right, I and L consume one
foot and V consumes two. Cubes inside a fragment are stored from their
fewest-feet corner, whose word therefore uses only I and L.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import (Diagram, apply_move, invert_move, is_reduced,
                       merge_feet, split_foot)
from .characters import (MorseSpec, chi, chi0, chi1, count_left, count_right,
                         refined_compare)
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
    f = x.feet
    p, q = band
    if not p <= f <= q:
        raise ValueError(f"vertex has {f} feet, outside band {band}")
    words: list = []

    def grow(i, prefix, splits, merges):
        # i feet consumed so far; a V consumes two of them
        if i == f:
            words.append("".join(prefix))
            return
        prefix.append("I")
        grow(i + 1, prefix, splits, merges)
        prefix.pop()
        if f + splits + 1 <= q:
            prefix.append("L")
            grow(i + 1, prefix, splits + 1, merges)
            prefix.pop()
        if i + 2 <= f and f - merges - 1 >= p:
            prefix.append("V")
            grow(i + 2, prefix, splits, merges + 1)
            prefix.pop()

    grow(0, [], 0, 0)
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
    """Banded link of a vertex: one simplex per nontrivial coface word."""
    simplices = [word_labels(w) for w in cofaces(x, band)]
    return SimplicialComplex([s for s in simplices if s])


def _label_directions(x: Diagram, spec: MorseSpec) -> dict:
    p, q = spec.band
    f = x.feet
    out = {}
    if f + 1 <= q:
        for i in range(1, f + 1):
            out[("v", i)] = refined_compare(spec, split_foot(x, i), x)
    if f - 1 >= p:
        for i in range(1, f):
            out[("e", i)] = refined_compare(spec, merge_feet(x, i), x)
    return out


def ascending_link(x: Diagram, spec: MorseSpec, down: bool = False
                   ) -> SimplicialComplex:
    """Subcomplex of the banded link on cofaces all of whose moves ascend.

    Heights are computed on the actual neighbor diagrams, independently of
    the combinatorial link model.
    """
    want = -1 if down else 1
    direction = _label_directions(x, spec)
    simplices = []
    for w in cofaces(x, spec.band):
        labels = word_labels(w)
        if labels and all(direction[lab] == want for lab in labels):
            simplices.append(labels)
    return SimplicialComplex(simplices)


def descending_link(x: Diagram, spec: MorseSpec) -> SimplicialComplex:
    return ascending_link(x, spec, down=True)


def monotone_cofaces(x: Diagram, spec: MorseSpec, down: bool = False) -> list:
    """Coface words whose moves all strictly ascend (or descend).

    The trivial word qualifies vacuously; the result is the closed star of
    x in the ascending (descending) direction.
    """
    want = -1 if down else 1
    direction = _label_directions(x, spec)
    return [w for w in cofaces(x, spec.band)
            if all(direction[lab] == want for lab in word_labels(w))]


# ---------------------------------------------------------------------------
# fragments

class Fragment:
    """Immutable finite window of the cube complex.

    Vertices are stored in discovery order, and index maps each vertex
    Diagram (hashed by its two forests) to its position. Edges, moves, and
    cubes are the ones induced on that vertex set. Cube words use I/L only,
    read from the cube's fewest-feet corner.
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
        for i, d in enumerate(self.vertices):
            check_vertex(d, self.band)
            if self.index.setdefault(d, i) != i:
                raise ValueError(f"duplicate vertex {d.canon}")
        # an edge is a split at its fewer-feet end, and the inverse merge
        # undoes it, so applying each unknown split records every edge left
        for i in range(done, len(self.vertices)):
            d, mv = self.vertices[i], self.moves[i]
            for move in moves_in_band(d, self.band):
                if move[0] == "s" and move not in mv:
                    j = self.index.get(apply_move(d, move))
                    if j is not None:
                        mv[move] = j
                        self.moves[j][invert_move(move)] = i
        self.chi0_values = [chi0(d) for d in self.vertices]
        self.chi1_values = [chi1(d) for d in self.vertices]
        self.feet_values = [d.feet for d in self.vertices]
        self.L_values = [L_value(d) for d in self.vertices]
        self.R_values = [R_value(d) for d in self.vertices]
        self.chi_values = {}
        tracked = list(self.characters)
        if chi_floor is not None and chi_floor[0] not in tracked:
            tracked.append(chi_floor[0])
        for char in tracked:
            self.chi_values[str(char)] = [
                char.a * c0 + char.b * c1
                for c0, c1 in zip(self.chi0_values, self.chi1_values)]
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
        present = {}

        def has_cube(i, positions):
            if not positions:
                return True
            key = (i, positions)
            cached = present.get(key)
            if cached is not None:
                return cached
            m = positions[0]
            rest = positions[1:]
            j = self.moves[i].get(("s", m))
            ok = (j is not None and has_cube(i, rest)
                  and has_cube(j, tuple(p + 1 for p in rest)))
            present[key] = ok
            return ok

        found = []
        level = []
        for i, mv in enumerate(self.moves):
            for kind, pos in sorted(mv):
                if kind == "s":
                    level.append((i, (pos,)))
        while level:
            found.extend(level)
            nxt = []
            for i, positions in level:
                for m in range(positions[-1] + 1, self.feet_values[i] + 1):
                    if ("s", m) in self.moves[i]:
                        grown = positions + (m,)
                        if has_cube(i, grown):
                            nxt.append((i, grown))
            level = nxt
        out = []
        for i, positions in found:
            word = "".join("L" if p in positions else "I"
                           for p in range(1, self.feet_values[i] + 1))
            out.append((i, word))
        out.sort(key=lambda c: (c[1].count("L"), c[0], c[1]))
        return out

    def corners(self, base: int, word: str) -> list:
        """Vertex indices of all corners of the cube, base included."""
        positions = [i + 1 for i, ch in enumerate(word) if ch == "L"]
        corners = [base]
        for p in reversed(positions):
            corners = corners + [self.step(i, ("s", p)) for i in corners]
        return corners

    def top_corner(self, base: int, word: str) -> int:
        """Index of the cube's most-feet corner (all splits applied)."""
        positions = [i + 1 for i, ch in enumerate(word) if ch == "L"]
        cur = base
        for p in reversed(positions):
            cur = self.step(cur, ("s", p))
        return cur

    def cells(self) -> list:
        """All cells as (base, word): vertices (all-I words) first, then cubes."""
        verts = [(i, "I" * self.feet_values[i])
                 for i in range(len(self.vertices))]
        return verts + list(self.cubes)

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
    truncation by max_vertices keeps any shorter run as a prefix. The move
    maps found here are handed to the Fragment, which applies only the
    unknown splits of the vertices left unexpanded.
    """
    p, q = band
    if not 1 <= p <= q:
        raise ValueError(f"invalid band {band}")
    if chi_floor is not None:
        char, threshold = chi_floor
        chi_floor = (char, Fraction(threshold))

    def admissible(d):
        return chi_floor is None or chi(chi_floor[0], d) >= chi_floor[1]

    vertices, index, moves = [], {}, []
    truncated = False
    for d in seeds:
        check_vertex(d, band)
        if not admissible(d):
            raise ValueError(f"seed below the character floor: {d}")
        if d in index:
            continue
        if len(vertices) >= max_vertices:
            truncated = True
            break
        index[d] = len(vertices)
        vertices.append(d)
        moves.append({})

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
                    if len(vertices) >= max_vertices:
                        truncated = True
                        break
                    j = index[y] = len(vertices)
                    vertices.append(y)
                    moves.append({})
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
    base, word = cell
    x = frag.vertices[frag.top_corner(base, word)]
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
    labels = [tuple(sorted(cover_assign(c, frag))) for c in cells]
    corner_lists = [frag.corners(base, word) for base, word in cells]

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

    simplices = []
    cell_nerve_vertices = []
    for ci, labs in enumerate(labels):
        nv = tuple((side, value, cell_component[((side, value), ci)])
                   for side, value in labs)
        cell_nerve_vertices.append(nv)
        simplices.append(nv)
    complex_ = SimplicialComplex(simplices)
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


def nerve(frag: Fragment) -> SimplicialComplex:
    """Nerve of the two-sided depth cover, as a graph-dimensional complex."""
    return nerve_data(frag)["complex"]
