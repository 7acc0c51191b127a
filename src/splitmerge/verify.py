"""Claim-by-claim verification suite.

Each runner rebuilds its inputs, performs a fixed list of checks and
returns a JSON-ready report {"claim", "ok", "checks", "parameters"}. It
takes the sizes a CLI flag sets and, if randomized, an explicit seed, so
runs are deterministic; every other size is fixed in it. A runner whose
only failed checks are ones it could not decide (a pi1 probe the Tietze
moves left open, an exploration too small to fill a sample) raises
RuntimeError instead: the claim is inconclusive, not false.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .trees import LEAF, left_vine, right_vine
from .diagrams import (Diagram, apply_move, cancel_at, multiply, generator,
                       parse_diagram, random_diagram, random_expansion,
                       random_group_element, random_vertex, reduce,
                       reducible_positions)
from .characters import Character, MorseSpec, chi0, chi1, check_morse_on_fragment
from .complexes import (SimplicialComplex, ascending_link_model, cone,
                        descending_link_model, gm_linear, join, m_linear,
                        move_delta, shift_labels)
from .homology import (betti_via_rational_ranks, cubical_chain_complex,
                       fragment_pair_homology, homology, homology_report,
                       relative_homology, simplicial_chain_complex,
                       subdivision_complex)
from .steinfarley import (ascending_link, descending_link, explore, link_of,
                          word_labels, apply_labels, monotone_cofaces)
from .nervecycle import CycleCertificate, find_nerve_cycle, validate_certificate

DEFAULT_SEED = 20260816


def _check(checks: list, name: str, ok, detail="") -> bool:
    checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})
    return bool(ok)


def _report(claim: str, checks: list, parameters: dict,
            unsettled=None) -> dict:
    """The claim's report; unsettled maps a check name to the reason it
    could not be decided. RuntimeError when only such checks failed, or
    when no check ran at all."""
    if not checks:
        raise RuntimeError("no check ran")
    failed = [c["name"] for c in checks if not c["ok"]]
    if failed and unsettled and all(name in unsettled for name in failed):
        raise RuntimeError("; ".join(f"{name}: {unsettled[name]}"
                                     for name in failed))
    return {
        "claim": claim,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "parameters": parameters,
    }


def _same_betti(a: list, b: list) -> bool:
    """Equal Betti lists once the shorter is padded with zeros."""
    width = max(len(a), len(b))
    return a + [0] * (width - len(a)) == b + [0] * (width - len(b))


def _acyclic(rep: dict) -> bool:
    """Zero reduced Betti numbers and no torsion in any degree."""
    return not any(rep["betti_reduced"]) and not any(rep["torsion"])


def _band_seed_vertex(p: int) -> Diagram:
    """A canonical reduced vertex with exactly p feet."""
    return Diagram((right_vine(p - 1),), (LEAF,) * p)


# ---------------------------------------------------------------------------
# 1. diagram calculus

def _reduce_in_random_order(rng, d: Diagram) -> Diagram:
    while True:
        positions = reducible_positions(d)
        if not positions:
            return d
        d = cancel_at(d, rng.choice(positions))


def run_diagram_calculus(seed: int = DEFAULT_SEED,
                         samples: int = 1000) -> dict:
    rng = random.Random(seed)
    triples, max_generator = 500, 6
    checks = []

    bad = []
    for k in range(samples):
        d = random_diagram(rng, rng.randint(1, 4), rng.randint(1, 4),
                           rng.randint(0, 14))
        d = random_expansion(rng, d, rng.randint(0, 6))
        if _reduce_in_random_order(rng, d) != reduce(d):
            bad.append(d.canon)
    _check(checks, "confluent-reduction", not bad,
           f"{samples} diagrams, {len(bad)} order-dependent reductions")

    assoc_bad = 0
    for _ in range(triples):
        f = random_group_element(rng, rng.randint(0, 10))
        g = random_group_element(rng, rng.randint(0, 10))
        h = random_group_element(rng, rng.randint(0, 10))
        if multiply(multiply(f, g), h) != multiply(f, multiply(g, h)):
            assoc_bad += 1
    _check(checks, "associativity", assoc_bad == 0,
           f"{triples} triples, {assoc_bad} failures")

    rel_bad = []
    for i in range(max_generator + 1):
        for j in range(i + 1, max_generator + 1):
            lhs = multiply(generator(j), generator(i))
            rhs = multiply(generator(i), generator(j + 1))
            if lhs != rhs:
                rel_bad.append((i, j))
    _check(checks, "generator-relations", not rel_bad,
           f"pairs 0 <= i < j <= {max_generator}, failures: {rel_bad}")

    return _report("diagram-calculus", checks, {
        "seed": seed, "samples": samples, "triples": triples,
        "max_generator": max_generator})


# ---------------------------------------------------------------------------
# 2. characters

def run_characters(seed: int = DEFAULT_SEED, pairs: int = 500) -> dict:
    rng = random.Random(seed)
    expansions, vertices = 500, 200
    checks = []

    hom_bad = 0
    for _ in range(pairs):
        g = random_group_element(rng, rng.randint(0, 12))
        h = random_group_element(rng, rng.randint(0, 12))
        p = multiply(g, h)
        if chi0(p) != chi0(g) + chi0(h) or chi1(p) != chi1(g) + chi1(h):
            hom_bad += 1
    _check(checks, "homomorphism", hom_bad == 0,
           f"{pairs} pairs, {hom_bad} failures")

    inv_bad = 0
    for _ in range(expansions):
        d = reduce(random_diagram(rng, rng.randint(1, 3), rng.randint(1, 3),
                                  rng.randint(0, 12)))
        e = random_expansion(rng, d, rng.randint(1, 6))
        if chi0(e) != chi0(d) or chi1(e) != chi1(d):
            inv_bad += 1
    _check(checks, "unreduced-invariance", inv_bad == 0,
           f"{expansions} expansions, {inv_bad} failures")

    delta_bad = 0
    seen = set()
    for _ in range(vertices):
        n = rng.randint(2, 8)
        x = random_vertex(rng, n, rng.randint(0, 10))
        labels = [("v", i) for i in range(1, n + 1)]
        labels += [("e", i) for i in range(1, n)]
        for label in labels:
            kind, i = label
            y = apply_move(x, ("s", i) if kind == "v" else ("m", i))
            got = (chi0(y) - chi0(x), chi1(y) - chi1(x))
            if got != move_delta(n, label):
                delta_bad += 1
            seen.add((kind, i == 1, i == (n if kind == "v" else n - 1)))
    _check(checks, "edge-move-deltas", delta_bad == 0,
           f"{vertices} vertices, {delta_bad} mismatches")
    _check(checks, "all-six-delta-classes", len(seen) >= 6,
           f"{len(seen)} (kind, first, last) classes exercised")

    return _report("characters", checks, {
        "seed": seed, "pairs": pairs, "expansions": expansions,
        "vertices": vertices})


# ---------------------------------------------------------------------------
# 3. Morse property on explored fragments

def run_morse_property(max_vertices: int = 5000) -> dict:
    characters = [Character(1, 0), Character(0, 1), Character(1, 1),
                  Character(-1, 2), Character(Fraction(1, 2), Fraction(-1, 3))]
    bands = [(2, 5), (3, 4), (4, 7)]
    checks = []
    for band in bands:
        frag = explore([_band_seed_vertex(band[0])], band,
                       max_vertices=max_vertices)
        for char in characters:
            spec = MorseSpec(char, 1, band)
            violations = check_morse_on_fragment(spec, frag)
            _check(checks, f"gap-{char}-band-{band[0]}-{band[1]}",
                   not violations,
                   f"{len(frag.vertices)} vertices, {len(frag.edges)} edges, "
                   f"{len(violations)} violations")
    return _report("morse-property", checks, {
        "characters": [str(c) for c in characters],
        "bands": [list(b) for b in bands], "max_vertices": max_vertices})


# ---------------------------------------------------------------------------
# 4. vertex links match the general matching complex of a path

def run_link_model(seed: int = DEFAULT_SEED, per_feet: int = 20) -> dict:
    rng = random.Random(seed)
    checks = []
    for n in range(2, 8):
        model = gm_linear(n)
        bad = []
        for _ in range(per_feet):
            x = random_vertex(rng, n, rng.randint(0, 10))
            link = link_of(x, (1, 2 * n))
            if link != model or link.f_vector() != model.f_vector():
                bad.append(x.canon)
        _check(checks, f"link-is-gm-{n}", not bad,
               f"{per_feet} vertices, f-vector {model.f_vector()}, "
               f"failures: {len(bad)}")
    return _report("link-model", checks, {
        "seed": seed, "per_feet": per_feet, "feet": [2, 7]})


# ---------------------------------------------------------------------------
# 5. matching complexes of paths

def run_matching_connectivity(n_max: int = 11) -> dict:
    checks = []
    for n in range(2, n_max + 1):
        m = m_linear(n)
        _check(checks, f"nonempty-{n}", not m.is_empty())
        expected_connected = (n == 2 or n >= 5)
        _check(checks, f"connected-{n}",
               m.is_connected() == expected_connected,
               f"connected={m.is_connected()}, expected={expected_connected}")
        bound = (n - 2) // 3 - 1
        if bound >= 0:
            rep = homology_report(m, with_pi1=n >= 8)
            flat = all(rep["betti_reduced"][i] == 0 and not rep["torsion"][i]
                       for i in range(min(bound + 1, len(rep["betti"]))))
            _check(checks, f"acyclic-below-bound-{n}", flat,
                   f"reduced betti {rep['betti_reduced']}, bound {bound}")
        if n >= 8:
            _check(checks, f"pi1-trivial-{n}", rep["pi1"] == "trivial")
        if n >= 5:
            st1 = m.star(("e", 1))
            st2 = m.star(("e", 2))
            union_ok = (st1.simplices() | st2.simplices()) == m.simplices()
            meet = SimplicialComplex(list(st1.simplices() & st2.simplices()))
            model = shift_labels(m_linear(n - 3), 3)
            _check(checks, f"star-union-{n}", union_ok)
            _check(checks, f"star-intersection-{n}", meet == model,
                   f"intersection f-vector {meet.f_vector()}")
    return _report("matching-connectivity", checks, {"n_max": n_max})


# ---------------------------------------------------------------------------
# 6. ascending links over long intervals (characters with a < 0)

def run_long_interval_ascending() -> dict:
    characters = [Character(-1, 0), Character(-1, 1), Character(-2, 3),
                  Character(-1, -1)]
    checks = []
    unsettled = {}

    def check_contractible(name, shape_ok, rep, detail):
        # acyclic with trivial pi1; pi1 left open leaves the check undecided
        acyclic = shape_ok and _acyclic(rep)
        _check(checks, name, acyclic and rep["pi1"] == "trivial", detail)
        if acyclic and rep["pi1"] == "inconclusive":
            unsettled[name] = "the Tietze moves left pi1 open"

    n_param = 7
    band = (2, n_param)
    for char in characters:
        for f in range(2, n_param + 1):
            k = ascending_link_model(f, char, -1, band)
            _check(checks, f"m1-{char}-feet-{f}-connected",
                   not k.is_empty() and k.is_connected(),
                   f"f-vector {k.f_vector()}")
            if f < n_param - 1:
                rep = homology_report(k, with_pi1=True)
                check_contractible(f"m1-{char}-feet-{f}-cone",
                                   k.is_cone_with_apex(("v", 1)), rep,
                                   f"reduced betti {rep['betti_reduced']}, "
                                   f"pi1 {rep['pi1']}")
        if char.b < 0:
            f = n_param - 1
            k = ascending_link_model(f, char, -1, band)
            v_first = ("v", 1)
            v_last = ("v", f)
            merges = [lab for lab in k.vertices if lab[0] == "e"]
            middle = k.full_subcomplex(merges)
            poles = SimplicialComplex([[v_first], [v_last]])
            contractible = join(SimplicialComplex.simplex([v_first, v_last]),
                                middle)
            rep = homology_report(contractible, with_pi1=True)
            check_contractible(
                f"m1-{char}-feet-{f}-pole-join",
                frozenset([v_first, v_last]) not in k
                and k == join(poles, middle)
                and k == contractible.remove_open_star((v_first, v_last)),
                rep, f"link f-vector {k.f_vector()}")

    n_param = 10
    band = (2, n_param)
    for char in characters:
        for f in range(2, n_param + 1):
            k = ascending_link_model(f, char, -1, band)
            rep = homology_report(k, with_pi1=True)
            low_ok = (rep["connected"] and not any(rep["betti"][1:2])
                      and not any(rep["torsion"][1:2]))
            pi_ok = rep["pi1"] in ("trivial", "inconclusive")
            _check(checks, f"m2-{char}-feet-{f}", low_ok and pi_ok,
                   f"reduced betti {rep['betti_reduced']}, pi1 {rep['pi1']}")

    return _report("long-interval-ascending", checks, {
        "characters": [str(c) for c in characters],
        "bands": [[2, 7], [2, 10]]}, unsettled)


# ---------------------------------------------------------------------------
# 7. ascending links nonempty in the narrow band

def _cross_check_links(claim: str, band, characters, per_key: str,
                       per_feet: int, max_vertices: int, model_name: str,
                       model_ok) -> dict:
    """Check each ascending link model, then compare it with the links of
    up to per_feet explored vertices of each foot count in the band; the
    report records per_feet under per_key."""
    p, q = band
    checks = []
    unsettled = {}
    frag = explore([_band_seed_vertex(p)], band, max_vertices=max_vertices)
    by_feet = {f: [] for f in range(p, q + 1)}
    for i, x in enumerate(frag.vertices):
        rows = by_feet[frag.feet_values[i]]
        if len(rows) < per_feet:
            rows.append(x)
    for char in characters:
        spec = MorseSpec(char, 1, band)
        for f in range(p, q + 1):
            model = ascending_link_model(f, char, 1, band)
            _check(checks, f"model-{model_name}-{char}-feet-{f}",
                   model_ok(model), f"f-vector {model.f_vector()}")
            sample = by_feet[f]
            bad = [x.canon for x in sample
                   if ascending_link(x, spec) != model]
            name = f"cross-check-{char}-feet-{f}"
            _check(checks, name, len(sample) >= per_feet and not bad,
                   f"{len(sample)} vertices, {len(bad)} mismatches")
            if len(sample) < per_feet and not bad:
                unsettled[name] = (
                    f"{len(frag.vertices)} explored vertices held "
                    f"{len(sample)} of the {per_feet} sample vertices with "
                    f"{f} feet")
    return _report(claim, checks, {
        "band": list(band), per_key: per_feet,
        "characters": [str(c) for c in characters]}, unsettled)


def run_ascending_nonempty(per_combo: int = 50) -> dict:
    return _cross_check_links(
        "ascending-nonempty", (3, 4), [Character(1, 0), Character(0, 1)],
        "per_combo", per_combo, per_combo * 8, "nonempty",
        lambda model: not model.is_empty())


# ---------------------------------------------------------------------------
# 8. the left-depth invariant disconnects the nonnegative slab

def run_l_invariant_disconnection(max_vertices: int = 5000) -> dict:
    band = (3, 4)
    char = Character(1, 0)
    seed_l1 = parse_diagram("[(*,(*,(*,*)))]/[(*,*),*,*]")
    seed_l2 = parse_diagram("[((*,(*,*)),(*,*))]/[((*,*),*),*,*]")
    frag = explore([seed_l1, seed_l2], band, chi_floor=(char, 0),
                   max_vertices=max_vertices)
    if len(frag.vertices) < 2:
        raise RuntimeError(f"max_vertices {max_vertices} leaves out a seed")
    checks = []
    _check(checks, "seed-depths",
           frag.L_values[0] == 1 and frag.L_values[1] == 2)
    violating = [(i, j) for i, j in frag.edges
                 if frag.L_values[i] != frag.L_values[j]]
    _check(checks, "edges-preserve-left-depth", not violating,
           f"{len(frag.vertices)} vertices, {len(frag.edges)} edges, "
           f"{len(violating)} violations")
    comps = frag.components()  # vertex 0's class comes first
    _check(checks, "seeds-in-separate-components",
           len(comps) >= 2 and 1 not in comps[0],
           f"{len(comps)} components")
    return _report("l-invariant-disconnection", checks, {
        "band": list(band), "chi_floor": ["1,0", "0"],
        "max_vertices": max_vertices,
        "seeds": [seed_l1.canon, seed_l2.canon]})


# ---------------------------------------------------------------------------
# 9. ascending links connected for positive two-coefficient characters

def run_ascending_connected(per_feet: int = 25) -> dict:
    return _cross_check_links(
        "ascending-connected", (4, 7),
        [Character(1, 1), Character(2, 1), Character(1, 3)],
        "per_feet", per_feet, per_feet * 30, "connected",
        lambda model: not model.is_empty() and model.is_connected())


# ---------------------------------------------------------------------------
# 10. nerve cycle certificates

def run_nerve_cycle(characters=(Character(1, 1), Character(2, 1))) -> dict:
    checks = []
    for char in characters:
        cert = find_nerve_cycle(char)
        rep = validate_certificate(cert)
        for c in rep["checks"]:
            _check(checks, f"{char}-{c['name']}", c["ok"], c["detail"])
        round_trip = CycleCertificate.from_json(cert.to_json())
        _check(checks, f"{char}-json-round-trip", round_trip == cert,
               f"path lengths {rep['path_lengths']}")
    return _report("nerve-cycle", checks, {
        "characters": [str(c) for c in characters], "band": [4, 7]})


# ---------------------------------------------------------------------------
# 11. homology engine against independent oracles

def _random_complex(rng) -> SimplicialComplex:
    while True:
        facets = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, 4)
            facets.append(rng.sample(range(9), size))
        k = SimplicialComplex(facets)
        if len(k.simplices()) <= 30:
            return k


def run_homology_oracle(seed: int = DEFAULT_SEED, n_random: int = 50) -> dict:
    rng = random.Random(seed)
    n_cones, n_fragments = 10, 10
    checks = []

    rank_bad = 0
    for _ in range(n_random):
        k = _random_complex(rng)
        chain = simplicial_chain_complex(k)
        snf = [r["betti"] for r in homology(chain)]
        if snf != betti_via_rational_ranks(chain):
            rank_bad += 1
    _check(checks, "snf-matches-rational-ranks", rank_bad == 0,
           f"{n_random} complexes, {rank_bad} disagreements")

    for k_dim in (1, 2, 3):
        sphere = SimplicialComplex.boundary_sphere(range(k_dim + 2))
        rep = homology_report(sphere)
        ok = (rep["betti_reduced"] == [0] * k_dim + [1]
              and not any(rep["torsion"]))
        _check(checks, f"sphere-{k_dim}", ok,
               f"reduced betti {rep['betti_reduced']}")

    cone_bad = 0
    for _ in range(n_cones):
        c = cone(_random_complex(rng), "apex")
        if not _acyclic(homology_report(c)):
            cone_bad += 1
    _check(checks, "cones-acyclic", cone_bad == 0,
           f"{n_cones} cones, {cone_bad} failures")

    frag_bad = 0
    sizes = []
    for _ in range(n_fragments):
        x = random_vertex(rng, rng.randint(2, 5), rng.randint(0, 6))
        frag = explore([x], (2, 5), max_vertices=rng.randint(20, 40))
        cubical = [r["betti"] for r in homology(cubical_chain_complex(frag))]
        simplicial = [r["betti"] for r in homology(
            simplicial_chain_complex(subdivision_complex(frag)))]
        sizes.append(len(frag.vertices))
        if not _same_betti(cubical, simplicial):
            frag_bad += 1
    _check(checks, "cubical-matches-subdivision", frag_bad == 0,
           f"fragment sizes {sizes}, {frag_bad} disagreements")

    return _report("homology-oracle", checks, {
        "seed": seed, "n_random": n_random, "n_cones": n_cones,
        "n_fragments": n_fragments})


# ---------------------------------------------------------------------------
# 12. a hands-on instance of the Morse lemma

def run_morse_lemma_instance() -> dict:
    char = Character(1, 0)
    band = (3, 5)
    spec = MorseSpec(char, 1, band)
    top = Diagram((right_vine(6),), (left_vine(3), LEAF, LEAF, LEAF))
    checks = []

    # the closed descending star holds every sub-word, so every corner
    corners = {apply_labels(top, word_labels(w))
               for w in monotone_cofaces(top, spec, down=True)}
    vertices = sorted(corners, key=lambda d: d.canon)
    frag = explore(vertices, band, characters=(char,), max_radius=0)

    squares = [c for c in frag.cubes if c[1].count("L") == 2]
    _check(checks, "slab-cell-counts",
           len(frag.vertices) == 6 and len(frag.edges) == 7
           and len(squares) == 2,
           f"{len(frag.vertices)} vertices, {len(frag.edges)} edges, "
           f"{len(squares)} squares")

    crossing = [i for i, v in enumerate(frag.chi0_values) if v == 2]
    below = [i for i, v in enumerate(frag.chi0_values) if v <= 1]
    _check(checks, "two-level-slab",
           len(crossing) == 3 and len(below) == 3
           and set(frag.chi0_values) == {1, 2})

    for i in crossing:
        x = frag.vertices[i]
        dlk = descending_link(x, spec)
        model = descending_link_model(x.feet, char, 1, band)
        _check(checks, f"descending-link-connected-{i}",
               dlk == model and not dlk.is_empty() and dlk.is_connected(),
               f"feet {x.feet}, f-vector {dlk.f_vector()}")

    rel = fragment_pair_homology(frag, lambda i: frag.chi0_values[i] <= 1)
    rel_betti = [r["betti"] for r in rel]
    _check(checks, "relative-homology-vanishes",
           all(b == 0 for b in rel_betti)
           and all(not r["torsion"] for r in rel),
           f"relative betti {rel_betti}")

    sub = subdivision_complex(frag)
    sub_low = sub.full_subcomplex([i for i in below])
    rel_simplicial = relative_homology(sub, sub_low)
    simp_betti = [r["betti"] for r in rel_simplicial]
    _check(checks, "subdivision-pair-agrees",
           _same_betti(rel_betti, simp_betti),
           f"subdivision relative betti {simp_betti}")

    return _report("morse-lemma-instance", checks, {
        "character": str(char), "band": list(band), "seed_vertex": top.canon})


# ---------------------------------------------------------------------------

RUNNERS = {
    "diagram-calculus": run_diagram_calculus,
    "characters": run_characters,
    "morse-property": run_morse_property,
    "link-model": run_link_model,
    "matching-connectivity": run_matching_connectivity,
    "long-interval-ascending": run_long_interval_ascending,
    "ascending-nonempty": run_ascending_nonempty,
    "l-invariant-disconnection": run_l_invariant_disconnection,
    "ascending-connected": run_ascending_connected,
    "nerve-cycle": run_nerve_cycle,
    "homology-oracle": run_homology_oracle,
    "morse-lemma-instance": run_morse_lemma_instance,
}
