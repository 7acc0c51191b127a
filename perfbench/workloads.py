"""The four benchmark workloads: inputs, timed items and output checks.

Each workload builds its inputs from the workload seed alone, in set-up.
``items()`` lists one pass as (item id, callable) pairs; the runner times
each call. ``check`` verifies the outputs of the first pass by an
independent route, outside the timed region; ``digest`` summarizes an
output so that later passes can be compared with the first one.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
from fractions import Fraction


def _sha(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


class Claims:
    """Every registered claim, in registry order, at its shipped parameters."""

    unit = "claims"

    def __init__(self, sm, seed: int):
        self.verify = sm.verify
        self.names = list(sm.verify.RUNNERS)
        # seeded runners get the workload seed; the rest run as shipped
        self.kwargs = {
            name: ({"seed": seed} if "seed" in inspect.signature(
                runner).parameters else {})
            for name, runner in sm.verify.RUNNERS.items()}

    def warm_up(self):
        self._run("morse-lemma-instance")

    def inputs(self) -> str:
        return json.dumps(self.kwargs, sort_keys=True)

    def items(self):
        return [(name, lambda name=name: self._run(name))
                for name in self.names]

    def _run(self, name: str) -> str:
        # looked up on every call, so that tracing wrappers apply
        report = self.verify.RUNNERS[name](**self.kwargs[name])
        report["verdict"] = "pass" if report["ok"] else "fail"
        payload = dict(report)
        payload["schema"] = 1
        return json.dumps(payload, indent=2, sort_keys=True)

    def units_per_pass(self, outputs) -> int:
        return len(outputs)

    def digest(self, output) -> str:
        return _sha(output)

    def check(self, outputs) -> list:
        failures = []
        for k, text in enumerate(outputs):
            report = json.loads(text)
            if report.get("claim") != self.names[k]:
                failures.append((k, f"report names {report.get('claim')!r}"))
            elif report.get("ok") is not True:
                bad = [c["name"] for c in report["checks"] if not c["ok"]]
                failures.append((k, f"{self.names[k]} failed checks {bad}"))
        return failures


class Explore:
    """Banded explorations, each followed by cubes, to_json and JSON text."""

    unit = "vertices"

    def __init__(self, sm, seed: int):
        self.sm = sm
        rng = random.Random(f"explore:{seed}")
        # exploration cost grows with the seeds' caret counts, so the seed
        # picks shapes at fixed counts; it must not change the work per pass
        small = self._random_vertex(rng, 2, 1, carets=3)
        large = self._random_vertex(rng, 3, 30, carets=56)
        l1 = sm.parse_diagram("[(*,(*,(*,*)))]/[(*,*),*,*]")
        l2 = sm.parse_diagram("[((*,(*,*)),(*,*))]/[((*,*),*),*,*]")
        cert = sm.find_nerve_cycle(sm.Character(1, 1))
        witness = sm.parse_diagram(cert.witnesses[0])
        char10, char11 = sm.Character(1, 0), sm.Character(1, 1)
        # (id, seeds, band, floor, vertex budget, run nerve_data)
        self.specs = [
            ("2-5-small-seed", [small], (2, 5), None, 2500, False),
            ("2-5-large-seed", [large], (2, 5), None, 2500, False),
            ("3-4-l-invariant", [l1, l2], (3, 4), (char10, 0), 2500, False),
            ("4-7-nerve", [witness], (4, 7), (char11, 0), 1500, True),
        ]

    def _random_vertex(self, rng, feet, extra, carets):
        count = self.sm.trees.forest_num_carets
        while True:
            x = self.sm.diagrams.random_vertex(rng, feet, extra)
            if count(x.minus) + count(x.plus) == carets:
                return x

    def warm_up(self):
        self._run(("warm-up", self.specs[0][1], (2, 4), None, 50, False))

    def inputs(self) -> str:
        return repr([(spec[0], [d.canon for d in spec[1]], spec[2:5])
                     for spec in self.specs])

    def items(self):
        return [(spec[0], lambda spec=spec: self._run(spec))
                for spec in self.specs]

    def _run(self, spec):
        _, seeds, band, floor, budget, with_nerve = spec
        frag = self.sm.explore(seeds, band, chi_floor=floor,
                               max_vertices=budget)
        frag.cubes
        payload = frag.to_json()
        payload["schema"] = 1
        text = json.dumps(payload, indent=2, sort_keys=True)
        nerve = self.sm.nerve_data(frag) if with_nerve else None
        return frag, text, nerve

    def units_per_pass(self, outputs) -> int:
        return sum(len(frag.vertices) for frag, _, _ in outputs)

    def digest(self, output) -> str:
        frag, text, nerve = output
        extra = "" if nerve is None else str(nerve["complex"].f_vector())
        return _sha(text) + extra

    def check(self, outputs) -> list:
        failures = []
        split_foot = self.sm.split_foot
        for k, (frag, text, nerve) in enumerate(outputs):
            spec = self.specs[k]
            budget = spec[4]
            verts = frag.vertices
            bad_edges = 0
            for i, j in frag.edges:
                x = verts[i]
                targets = {split_foot(x, m).canon
                           for m in range(1, x.feet + 1)}
                if x.feet + 1 != verts[j].feet or verts[j].canon not in targets:
                    bad_edges += 1
            if bad_edges:
                failures.append((k, f"{bad_edges} edges are not splits"))
            truncated = frag.provenance.get("truncated")
            if len(verts) > budget or (truncated and len(verts) != budget):
                failures.append((k, f"truncated={truncated} with "
                                    f"{len(verts)} of {budget} vertices"))
            data = json.loads(text)
            if (len(data["vertices"]) != len(verts)
                    or len(data["edges"]) != len(frag.edges)
                    or len(data["cubes"]) != len(frag.cubes)
                    or data["provenance"]["truncated"] != truncated):
                failures.append((k, "JSON counts differ from the fragment"))
            if spec[0] == "3-4-l-invariant":
                comp_of = {}
                for c, comp in enumerate(frag.components()):
                    for i in comp:
                        comp_of[i] = c
                if comp_of[0] == comp_of[1]:
                    failures.append((k, "l-invariant seeds share a component"))
            if nerve is not None:
                labels = nerve["labels"]
                if (len(labels) != len(frag.cells())
                        or not all(labels) or nerve["complex"].is_empty()):
                    failures.append((k, "nerve data incomplete"))
        return failures


# ---------------------------------------------------------------------------
# homology: an independent route through the benchmark's own boundary
# matrices and exact elimination

def _cube_boundaries(frag, keep=None) -> tuple:
    """Cubical cells by degree and sparse boundary columns, built from the
    fragment's public cube list and moves. keep(degree, cell) filters the
    cells of a relative complex."""
    cells = [[(i, None) for i in range(len(frag.vertices))]]
    for base, word in frag.cubes:
        k = word.count("L")
        while len(cells) <= k:
            cells.append([])
        cells[k].append((base, word))
    if keep is not None:
        cells = [[c for c in level if keep(k, c)]
                 for k, level in enumerate(cells)]
    index = [{c: n for n, c in enumerate(level)} for level in cells]
    columns = [None]
    for k in range(1, len(cells)):
        level_cols = []
        for base, word in cells[k]:
            col = {}
            axes = [p + 1 for p, ch in enumerate(word) if ch == "L"]
            for a, p in enumerate(axes):
                front_base = frag.step(base, ("s", p))
                if k == 1:
                    back, front = (base, None), (front_base, None)
                else:
                    back = (base, word[:p - 1] + "I" + word[p:])
                    front = (front_base, word[:p - 1] + "II" + word[p:])
                sign = -1 if a % 2 else 1
                for face, s in ((front, sign), (back, -sign)):
                    row = index[k - 1].get(face)
                    if row is not None:
                        col[row] = col.get(row, 0) + s
            level_cols.append({r: v for r, v in col.items() if v})
        columns.append(level_cols)
    return [len(level) for level in cells], columns


def _rank(columns, p=None) -> int:
    """Rank of a sparse integer matrix over Q (p None) or GF(p)."""
    pivots = {}
    rank = 0
    for col in columns:
        if p is None:
            v = {r: Fraction(x) for r, x in col.items()}
        else:
            v = {r: x % p for r, x in col.items() if x % p}
        while v:
            r = min(v)
            piv = pivots.get(r)
            if piv is None:
                lead = v[r]
                inv = 1 / lead if p is None else pow(lead, -1, p)
                pivots[r] = {q: (x * inv if p is None else x * inv % p)
                             for q, x in v.items()}
                rank += 1
                break
            f = v[r]
            for q, x in piv.items():
                y = v.get(q, 0) - f * x
                if p is not None:
                    y %= p
                if y:
                    v[q] = y
                else:
                    v.pop(q, None)
    return rank


def _expected_homology(dims, columns) -> list:
    """Betti numbers over Q and, per degree, how many torsion
    coefficients 2 and 3 divide, from ranks over Q, GF(2) and GF(3)."""
    n = len(dims)
    ranks = {None: [0] * (n + 1), 2: [0] * (n + 1), 3: [0] * (n + 1)}
    for k in range(1, n):
        for p in ranks:
            ranks[p][k] = _rank(columns[k], p)
    out = []
    for k in range(n):
        q = ranks[None]
        out.append({
            "betti": dims[k] - q[k] - q[k + 1],
            "p_torsion": {p: q[k + 1] - ranks[p][k + 1] for p in (2, 3)}})
    return out


def _matches(result: list, expected: list) -> bool:
    width = max(len(result), len(expected))
    result = result + [{"betti": 0, "torsion": []}] * (width - len(result))
    expected = expected + [{"betti": 0, "p_torsion": {2: 0, 3: 0}}] * (
        width - len(expected))
    for got, want in zip(result, expected):
        if got["betti"] != want["betti"]:
            return False
        for p, count in want["p_torsion"].items():
            if sum(1 for t in got["torsion"] if t % p == 0) != count:
                return False
    return True


class Homology:
    """Integral homology of prebuilt fragments and matching complexes."""

    unit = "cells"

    def __init__(self, sm, seed: int):
        self.sm = sm
        rng = random.Random(f"homology:{seed}")
        self.fragments = []
        for band in ((2, 4), (2, 5), (3, 6)):
            x = sm.diagrams.random_vertex(rng, band[0], 8)
            frag = sm.explore([x], band, max_vertices=300)
            frag.cubes  # cube enumeration belongs to set-up, not the timing
            self.fragments.append((f"chain-{band[0]}-{band[1]}", frag))
        pair_frag = self.fragments[0][1]
        chi0 = pair_frag.chi0_values
        self.threshold = sorted(chi0)[len(chi0) // 2]
        self.pair_frag = pair_frag
        self.matching = [(n, sm.m_linear(n)) for n in (13, 14)]

    def _in_sub(self, i: int) -> bool:
        return self.pair_frag.chi0_values[i] <= self.threshold

    def warm_up(self):
        self.sm.homology_report(self.sm.m_linear(6))

    def inputs(self) -> str:
        return repr([(name, frag.vertices[0].canon, len(frag.vertices))
                     for name, frag in self.fragments] + [self.threshold])

    def items(self):
        sm = self.sm
        out = [(name, lambda frag=frag: sm.homology(
                    sm.cubical_chain_complex(frag)))
               for name, frag in self.fragments]
        out.append(("pair-chi0-sublevel", lambda: sm.fragment_pair_homology(
            self.pair_frag, self._in_sub)))
        out += [(f"m-linear-{n}", lambda k=k: sm.homology_report(k))
                for n, k in self.matching]
        return out

    def units_per_pass(self, outputs) -> int:
        """Cells of the chain complexes each pass builds."""
        frags = [f for _, f in self.fragments] + [self.pair_frag]
        return (sum(len(f.vertices) + len(f.cubes) for f in frags)
                + sum(len(k.simplices()) for _, k in self.matching))

    def digest(self, output) -> str:
        return json.dumps(output, sort_keys=True, default=str)

    def check(self, outputs) -> list:
        failures = []
        names = [name for name, _ in self.items()]
        for k, (_, frag) in enumerate(self.fragments):
            if not _matches(outputs[k], _expected_homology(
                    *_cube_boundaries(frag))):
                failures.append((k, f"{names[k]} homology differs from "
                                    "the independent ranks"))
        frag = self.pair_frag

        def outside_sub(k, cell):
            base, word = cell
            if k == 0:
                return not self._in_sub(base)
            return not all(self._in_sub(c) for c in frag.corners(base, word))

        k = len(self.fragments)
        if not _matches(outputs[k], _expected_homology(
                *_cube_boundaries(frag, outside_sub))):
            failures.append((k, "pair homology differs from the "
                                "independent ranks"))
        for n, _ in self.matching:
            k += 1
            rep = outputs[k]
            # Kozlov: M(L_n) = Ind(P_{n-1}) is contractible when n = 2 mod 3
            # and otherwise a sphere of dimension floor(n/3) - 1
            want = [0] * len(rep["betti_reduced"])
            if n % 3 != 2:
                want[n // 3 - 1] = 1
            if rep["betti_reduced"] != want or any(rep["torsion"]):
                failures.append((k, f"M(L_{n}) reduced betti "
                                    f"{rep['betti_reduced']}, want {want}"))
        return failures


class Links:
    """Ascending and descending links of many small vertices."""

    unit = "links"
    size = 2000

    def __init__(self, sm, seed: int):
        self.sm = sm
        rng = random.Random(f"links:{seed}")
        chars = [sm.Character(a, b) for a, b in (
            (-1, 1), (1, -1), (-2, 3), (3, -2), (-1, 2), (2, -1),
            (Fraction(1, 2), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(1, 2)))]
        self.cases = []
        for _ in range(self.size):
            feet = rng.randint(2, 9)
            x = sm.diagrams.random_vertex(rng, feet, rng.randint(0, 12))
            # three feet of headroom above the vertex: the long-interval
            # regime in which both links are 1-connected
            spec = sm.MorseSpec(rng.choice(chars), rng.choice((1, -1)),
                                (2, feet + 3))
            self.cases.append((x, spec))

    def warm_up(self):
        for case in self.cases[:5]:
            self._run(case)

    def inputs(self) -> str:
        return repr([(x.canon, str(spec.character), spec.secondary,
                      spec.band) for x, spec in self.cases])

    def items(self):
        return [(f"link-{k}", lambda case=case: self._run(case))
                for k, case in enumerate(self.cases)]

    def _run(self, case):
        sm = self.sm
        x, spec = case
        args = (x.feet, spec.character, spec.secondary, spec.band)
        asc = sm.ascending_link(x, spec)
        desc = sm.descending_link(x, spec)
        asc_ok = asc == sm.ascending_link_model(*args)
        desc_ok = desc == sm.descending_link_model(*args)
        verdict = sm.connectivity_evidence(asc, 1)["verdict"]
        return asc_ok, desc_ok, verdict, asc, desc

    def units_per_pass(self, outputs) -> int:
        return len(outputs)

    def digest(self, output) -> str:
        asc_ok, desc_ok, verdict, asc, desc = output
        return f"{asc_ok} {desc_ok} {verdict} {asc.f_vector()} {desc.f_vector()}"

    def check(self, outputs) -> list:
        failures = []
        for k, (asc_ok, desc_ok, verdict, _, _) in enumerate(outputs):
            if not (asc_ok and desc_ok):
                failures.append((k, f"link-{k} differs from its model"))
            elif verdict != "consistent":
                failures.append((k, f"link-{k} connectivity {verdict}"))
        return failures


WORKLOADS = {"claims": Claims, "explore": Explore, "homology": Homology,
             "links": Links}
