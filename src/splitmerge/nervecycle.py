"""Quadrilateral certificates in the nerve of the two-sided depth cover.

For a character with both coefficients positive, four witness vertices with
(L, R) depth pairs (2,2), (3,2), (3,3), (2,3) are connected in a square by
edge paths, each path confined to a single cover piece. The resulting nerve
contains an embedded 4-cycle, so it is not simply connected.

The paths are built by an explicit walk, not a search: drain the left vine
of the foot forest, raise the head tree's left depth by one while no foot
caret is watching, then rebuild the vine two carets taller. Its mirror
raises the right depth. Every step is gated at build time (band, character
floor, reducedness, constancy of the off-side depth), and the finished
certificate is replayed by an independent validator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .trees import LEAF, add_caret, is_leaf, left_vine, num_carets, right_vine
from .diagrams import Diagram, apply_move, is_reduced, mirror_diagram, parse_diagram
from .characters import Character, chi, count_left, count_right
from .steinfarley import (L_value, R_value, check_vertex, explore,
                          moves_in_band, nerve_data)


@dataclass(frozen=True)
class CycleCertificate:
    """Replayable witness that the cover nerve contains a 4-cycle.

    witnesses: four canonical vertex serializations, in cycle order.
    paths: four vertex sequences (endpoints included) joining consecutive
    witnesses; paths[i] runs from witnesses[i] to witnesses[(i+1) % 4].
    labels: the (side, value) cover label each path stays inside.
    """

    witnesses: tuple
    paths: tuple
    labels: tuple
    character: str
    band: tuple

    def to_json(self) -> dict:
        return {
            "witnesses": list(self.witnesses),
            "paths": [list(p) for p in self.paths],
            "labels": [{"side": s, "value": v} for s, v in self.labels],
            "character": Character.parse(self.character).to_json(),
            "band": list(self.band),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CycleCertificate":
        char = Character(Fraction(data["character"]["a"]),
                         Fraction(data["character"]["b"]))
        return cls(
            witnesses=tuple(data["witnesses"]),
            paths=tuple(tuple(p) for p in data["paths"]),
            labels=tuple((lab["side"], int(lab["value"]))
                         for lab in data["labels"]),
            character=str(char),
            band=tuple(int(v) for v in data["band"]),
        )


def _require(condition: bool, message: str, at=None) -> None:
    """Build-time invariant of the walk; unlike assert it survives -O.
    The vertex `at` is rendered only when the invariant fails."""
    if not condition:
        where = "" if at is None else f" at {at}"
        raise RuntimeError(
            f"nerve-cycle walk invariant failed: {message}{where}")


def _raise_left(x: Diagram, char: Character, budget: int) -> list:
    """Walk from (T / lvine(k), *, *, rvine(r)) to the same shape with k+2.

    The head tree gains carets at leaves 0 and 1; the right depth of both
    sides never moves, so every vertex and edge stays inside one (R, value)
    cover piece. Feet stay within [4, 7] and the character value never goes
    negative (given coefficients a, b > 0 with the entry heights used by
    find_nerve_cycle).
    """
    plus = x.plus
    if x.heads != 1 or x.feet != 4:
        raise ValueError("leg expects a one-head four-foot vertex")
    lam = num_carets(plus[0])
    rho = num_carets(plus[3])
    if (plus[0] != left_vine(lam) or lam < 4 or plus[1] != LEAF
            or plus[2] != LEAF or plus[3] != right_vine(rho) or rho < 4):
        raise ValueError("leg expects feet (lvine, *, *, rvine) with "
                         "vine lengths >= 4")
    right_depth_head = count_right(x.minus)
    states = [x]

    def do(move, minus_may_change=False):
        prev = states[-1]
        cur = apply_move(prev, move)
        if len(states) >= budget:
            raise RuntimeError(
                "cycle search exhausted within limits; retry with larger limits")
        _require(4 <= cur.feet <= 7, "left the band", cur)
        _require(is_reduced(cur), "unexpected reduction", cur)
        if not minus_may_change:
            _require(cur.minus == prev.minus, "head side moved", cur)
        _require(count_right(cur.minus) == right_depth_head,
                 "head right depth moved", cur)
        _require(count_right(cur.plus) > 0, "foot right depth vanished",
                 cur)
        _require(chi(char, cur) >= 0, "character went negative", cur)
        states.append(cur)
        return cur

    cur = x
    # drain the left vine, one caret per split of the first foot
    while count_left(cur.plus) > 0:
        if cur.feet == 7:
            cur = do(("m", 2))
        cur = do(("s", 1))
    _require(cur.feet == 7, "vine drain did not end at seven feet", cur)
    # park the loose feet to make room inside the band
    cur = do(("m", 2))
    cur = do(("m", 3))
    _require(cur.feet == 5, "parking did not end at five feet", cur)
    # raise the head tree's left depth while no left foot caret is watching
    before = cur
    cur = do(("s", 1), minus_may_change=True)
    _require(cur.minus == add_caret(before.minus, 0),
             "first head caret missing", cur)
    # a second head caret so the coming merge cannot cancel the first
    before = cur
    cur = do(("s", 2), minus_may_change=True)
    _require(cur.minus == add_caret(before.minus, 1),
             "second head caret missing", cur)
    # rebuild the left vine two carets taller
    cur = do(("m", 1))
    while count_left(cur.plus) < lam + 2:
        if is_leaf(cur.plus[1]):
            cur = do(("m", 1))
        else:
            _require(cur.feet <= 6, "no room to unpack feet", cur)
            cur = do(("s", 2))
    expected = Diagram(
        add_caret(add_caret(x.minus, 0), 1),
        (left_vine(lam + 2), LEAF, LEAF, plus[3]))
    _require(states[-1] == expected, "leg did not land on its target")
    return states


def _raise_right(x: Diagram, char: Character, budget: int) -> list:
    mirrored = _raise_left(mirror_diagram(x), Character(char.b, char.a),
                           budget)
    return [mirror_diagram(d) for d in mirrored]


def find_nerve_cycle(character: Character, band=(4, 7),
                     max_steps: int = 100000) -> CycleCertificate:
    """Build and validate a 4-cycle certificate for an a > 0, b > 0 character.

    Entry vine heights scale with the coefficient ratio so that draining
    one vine never pushes the character below zero.
    """
    a, b = character.a, character.b
    if a <= 0 or b <= 0:
        raise ValueError("both character coefficients must be positive")
    p, q = band
    if p > 4 or q < 7:
        raise ValueError("the walk needs the band to contain [4, 7]")

    lam0 = 3 + math.ceil(Fraction(3) * b / a)
    rho0 = 3 + math.ceil(Fraction(3) * a / b)
    gadget = (LEAF, (LEAF, LEAF))
    tadget = ((LEAF, LEAF), LEAF)
    x_tree = left_vine(lam0)
    y_tree = right_vine(rho0)

    def vertex(left_gadget, right_gadget, lam, rho):
        head = ((left_gadget, x_tree), (y_tree, right_gadget))
        return Diagram((head,), (left_vine(lam), LEAF, LEAF, right_vine(rho)))

    x1 = vertex(LEAF, LEAF, lam0, rho0)
    x2 = vertex(gadget, LEAF, lam0 + 2, rho0)
    x3 = vertex(gadget, tadget, lam0 + 2, rho0 + 2)
    x4 = vertex(LEAF, tadget, lam0, rho0 + 2)

    p12 = _raise_left(x1, character, max_steps)
    _require(p12[-1] == x2, "first leg missed its witness")
    p23 = _raise_right(x2, character, max_steps)
    _require(p23[-1] == x3, "second leg missed its witness")
    p34 = list(reversed(_raise_left(x4, character, max_steps)))
    _require(p34[0] == x3, "third leg missed its witness")
    p41 = list(reversed(_raise_right(x1, character, max_steps)))
    _require(p41[0] == x4, "fourth leg missed its witness")

    cert = CycleCertificate(
        witnesses=(x1.canon, x2.canon, x3.canon, x4.canon),
        paths=(
            tuple(d.canon for d in p12),
            tuple(d.canon for d in p23),
            tuple(d.canon for d in p34),
            tuple(d.canon for d in p41),
        ),
        labels=(("R", 2), ("L", 3), ("R", 3), ("L", 2)),
        character=str(character),
        band=(p, q),
    )
    report = validate_certificate(cert)
    if not report["ok"]:
        failed = [c for c in report["checks"] if not c["ok"]]
        raise AssertionError(f"built certificate failed replay: {failed}")
    return cert


def _gate(vertex: Diagram, side: str, value: int) -> bool:
    if side == "L":
        return L_value(vertex) == value and count_left(vertex.plus) > 0
    return R_value(vertex) == value and count_right(vertex.plus) > 0


def validate_certificate(cert: CycleCertificate,
                         character: Character = None) -> dict:
    """Replay a certificate from its serialized form alone.

    Checks vertex admissibility, path adjacency, closure through the four
    witnesses, the per-cell cover-label gates, and the presence of the
    alternating 4-cycle in the nerve of the induced fragment.
    """
    if character is None:
        character = Character.parse(cert.character)
    band = tuple(cert.band)
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    witnesses = [parse_diagram(w) for w in cert.witnesses]
    paths = [[parse_diagram(v) for v in path] for path in cert.paths]

    lr = [(L_value(w), R_value(w)) for w in witnesses]
    check("witness-depths", lr == [(2, 2), (3, 2), (3, 3), (2, 3)],
          f"(L,R) = {lr}")
    sides = [side for side, _ in cert.labels]
    check("labels-alternate", sides == ["R", "L", "R", "L"]
          and len(set(cert.labels)) == 4, f"labels = {cert.labels}")

    admissible = True
    for path in paths:
        for v in path:
            try:
                check_vertex(v, band)
            except ValueError as exc:
                admissible = check("vertices-admissible", False, str(exc))
                break
            if chi(character, v) < 0:
                admissible = check("vertices-admissible", False,
                                   f"character negative at {v}")
                break
        if not admissible:
            break
    if admissible:
        check("vertices-admissible", True,
              f"{sum(len(p) for p in paths)} path vertices")

    closed = all(
        paths[i][0] == witnesses[i]
        and paths[i][-1] == witnesses[(i + 1) % 4]
        for i in range(4))
    check("paths-close-cycle", closed)

    adjacent = True
    for path in paths:
        for u, v in zip(path, path[1:]):
            found = any(apply_move(u, move) == v
                        for move in moves_in_band(u, band))
            if not found:
                adjacent = check("paths-adjacent", False,
                                 f"{u} and {v} are not neighbors")
                break
        if not adjacent:
            break
    if adjacent:
        check("paths-adjacent", True)

    gates_ok = True
    for path, (side, value) in zip(paths, cert.labels):
        for v in path:
            if not _gate(v, side, value):
                gates_ok = check("paths-inside-label", False,
                                 f"vertex {v} outside ({side},{value})")
                break
        if not gates_ok:
            break
        for u, v in zip(path, path[1:]):
            top = u if u.feet > v.feet else v
            if not _gate(top, side, value):
                gates_ok = check("paths-inside-label", False,
                                 f"edge {u} -- {v} outside ({side},{value})")
                break
        if not gates_ok:
            break
    if gates_ok:
        check("paths-inside-label", True)

    cycle_ok = False
    if admissible and closed:
        seen = {}
        all_vertices = []
        for path in paths:
            for v in path:
                if v.canon not in seen:
                    seen[v.canon] = True
                    all_vertices.append(v)
        frag = explore(all_vertices, band, chi_floor=(character, 0),
                       max_radius=0)
        try:
            data = nerve_data(frag)
        except AssertionError as exc:
            check("nerve-cycle", False, f"cover invariant failed: {exc}")
        else:
            by_side = []
            for w in witnesses:
                cell_idx = frag.index[w.canon]
                labs = dict((side, (side, value, comp)) for side, value, comp
                            in data["cell_nerve_vertices"][cell_idx])
                by_side.append(labs)
            v_r2 = by_side[0].get("R")
            v_l3 = by_side[1].get("L")
            v_r3 = by_side[2].get("R")
            v_l2 = by_side[3].get("L")
            corners = [v_r2, v_l3, v_r3, v_l2]
            same_component = (
                None not in corners
                and by_side[1].get("R") == v_r2
                and by_side[2].get("L") == v_l3
                and by_side[3].get("R") == v_r3
                and by_side[0].get("L") == v_l2)
            nerve_complex = data["complex"]
            edges_present = same_component and all(
                frozenset(e) in nerve_complex for e in (
                    (v_l2, v_r2), (v_r2, v_l3), (v_l3, v_r3), (v_r3, v_l2)))
            cycle_ok = (same_component and edges_present
                        and len(set(corners)) == 4)
            check("nerve-cycle", cycle_ok,
                  f"nerve vertices {sorted(nerve_complex.vertices)}")
    else:
        check("nerve-cycle", False, "skipped: paths invalid")

    return {
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "character": str(character),
        "band": list(band),
        "path_lengths": [len(p) for p in cert.paths],
    }
