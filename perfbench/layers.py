"""Which splitmerge functions the traced run wraps, and the per-layer
metrics derived from one pass of wrapped calls.

Metric names match BENCHMARK.json and are the names the in-program spans
of ``splitmerge.metrics`` should keep when they replace these wrappers.
"""

from __future__ import annotations

import sys

# (module, function, layer name, keep spans); hot calls keep no spans
FUNCTIONS = [
    ("trees", "validate_forest", "trees.validate", False),
    ("trees", "render_forest", "trees.render", False),
    ("trees", "parse_tree", "trees.parse", False),
    ("trees", "parse_forest", "trees.parse", False),
    ("diagrams", "parse_diagram", "trees.parse", False),
    ("diagrams", "apply_move", "diagrams.move", False),
    ("diagrams", "split_foot", "diagrams.move", False),
    ("diagrams", "merge_feet", "diagrams.move", False),
    ("diagrams", "multiply", "diagrams.multiply", False),
    ("diagrams", "reduce", "diagrams.reduce", False),
    ("characters", "chi", "characters.chi", False),
    ("characters", "chi0", "characters.chi", False),
    ("characters", "chi1", "characters.chi", False),
    ("characters", "refined_compare", "characters.compare", False),
    ("characters", "refined_height", "characters.height", False),
    ("characters", "check_morse_on_fragment", "characters.morse_check", True),
    ("complexes", "ascending_link_model", "complexes.model", True),
    ("complexes", "descending_link_model", "complexes.model", True),
    ("complexes", "gm_linear", "complexes.model", True),
    ("complexes", "m_linear", "complexes.model", True),
    ("steinfarley", "explore", "steinfarley.explore", True),
    ("steinfarley", "nerve_data", "steinfarley.nerve", True),
    ("steinfarley", "ascending_link", "steinfarley.link", True),
    ("steinfarley", "descending_link", "steinfarley.link", True),
    ("steinfarley", "link_of", "steinfarley.link", True),
    ("homology", "simplicial_chain_complex", "homology.chain", True),
    ("homology", "cubical_chain_complex", "homology.chain", True),
    ("homology", "quotient_chain_complex", "homology.chain", True),
    ("homology", "smith_normal_form", "homology.snf", True),
    ("homology", "rank_over_rationals", "homology.rational", True),
    ("homology", "betti_via_rational_ranks", "homology.rational", True),
    ("homology", "homology", "homology.homology", True),
    ("homology", "homology_report", "homology.report", True),
    ("homology", "connectivity_evidence", "homology.connectivity", True),
    ("homology", "fragment_pair_homology", "homology.relative", True),
    ("homology", "relative_homology", "homology.relative", True),
    ("homology", "pi1_trivial", "homology.pi1", True),
    ("nervecycle", "find_nerve_cycle", "nervecycle.find", True),
    ("nervecycle", "validate_certificate", "nervecycle.validate", True),
]


def _nonzeros(matrix) -> int:
    """Nonzero entries of a boundary matrix stored as dense rows or as
    sparse {index: value} rows or columns."""
    nnz = 0
    for line in matrix:
        if isinstance(line, dict):
            nnz += sum(1 for v in line.values() if v)
        else:
            nnz += len(line) - line.count(0)
    return nnz


def install(tracer, sm):
    """Wrap the layer boundaries of the imported splitmerge package."""
    after = {
        "steinfarley.explore": _after_explore,
        "diagrams.move": _after_move,
        "homology.pi1": _after_pi1,
        "nervecycle.find": _after_find,
    }
    for module, attr, name, span in FUNCTIONS:
        hook = after.get(name)
        tracer.patch_function(
            sm, module, attr, name, span=span,
            after=(lambda r, a, s, hook=hook: hook(tracer, r)) if hook
            else None)

    steinfarley = sys.modules[sm.__name__ + ".steinfarley"]
    homology = sys.modules[sm.__name__ + ".homology"]
    tracer.patch_method(sm.Diagram, "__init__", "diagrams.construct",
                        span=False)
    tracer.patch_method(sm.SimplicialComplex, "__init__",
                        "complexes.construct", span=False)
    tracer.patch_method(sm.SimplicialComplex, "components",
                        "complexes.components", span=False)
    tracer.patch_method(steinfarley.Fragment, "__init__",
                        "steinfarley.fragment")
    tracer.patch_method(steinfarley.Fragment, "to_json", "steinfarley.json")

    def cubes_pending(args):
        return getattr(args[0], "_cubes", None) is None

    def count_cubes(result, args, pending):
        if pending:
            tracer.count("steinfarley.cubes", len(result))

    tracer.patch_method(steinfarley.Fragment, "cubes", "steinfarley.cubes",
                        before=cubes_pending, after=count_cubes)

    def count_cells(result, args, state):
        chain = args[0]
        dims = chain.dims
        tracer.count("homology.cells", sum(dims))
        tracer.count("homology.entries",
                     sum(a * b for a, b in zip(dims, dims[1:])))
        tracer.count("homology.nnz",
                     sum(_nonzeros(mat) for mat in chain.boundaries))

    tracer.patch_method(homology.ChainComplex, "__init__",
                        "homology.chain_complex", span=False,
                        after=count_cells)

    def count_checks(report, args, state):
        tracer.count("verify.checks", len(report["checks"]))
        tracer.count("verify.checks_failed",
                     sum(1 for c in report["checks"] if not c["ok"]))

    for claim in list(sm.verify.RUNNERS):
        tracer.patch_dict(sm.verify.RUNNERS, claim, f"verify.{claim}",
                          after=count_checks)


def _after_explore(tracer, frag):
    tracer.count("steinfarley.vertices", len(frag.vertices))
    if frag.provenance.get("truncated"):
        tracer.count("steinfarley.truncated")


def _after_move(tracer, result):
    if tracer.active("steinfarley.explore"):
        tracer.count("steinfarley.explore_moves")


def _after_pi1(tracer, verdict):
    if verdict == "inconclusive":
        tracer.count("homology.pi1_inconclusive")


def _after_find(tracer, cert):
    tracer.count("nervecycle.path_vertices",
                 sum(len(p) for p in cert.paths))


def metrics(tracer, claims) -> dict:
    """Per-layer values of the tracer's current window (one pass)."""
    calls, total, self_time, n = (tracer.calls, tracer.total,
                                  tracer.self_time, tracer.counts)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "trees.validate_calls": calls["trees.validate"],
        "trees.validate_s": total["trees.validate"],
        "trees.render_calls": calls["trees.render"],
        "trees.render_s": total["trees.render"],
        "trees.parse_s": total["trees.parse"],
        "diagrams.constructed": calls["diagrams.construct"],
        "diagrams.move_calls": calls["diagrams.move"],
        "diagrams.move_s": total["diagrams.move"],
        "diagrams.multiply_calls": calls["diagrams.multiply"],
        "diagrams.multiply_s": total["diagrams.multiply"],
        "diagrams.reduce_s": total["diagrams.reduce"],
        "steinfarley.explore_s": total["steinfarley.explore"],
        "steinfarley.vertices": n["steinfarley.vertices"],
        "steinfarley.new_vertex_ratio": ratio(
            n["steinfarley.vertices"], n["steinfarley.explore_moves"]),
        "steinfarley.truncated": n["steinfarley.truncated"],
        "steinfarley.cubes": n["steinfarley.cubes"],
        "steinfarley.cubes_s": total["steinfarley.cubes"],
        "steinfarley.json_s": total["steinfarley.json"],
        "steinfarley.nerve_s": total["steinfarley.nerve"],
        "steinfarley.link_s": total["steinfarley.link"],
        "homology.chain_s": total["homology.chain"],
        "homology.cells": n["homology.cells"],
        "homology.nnz": n["homology.nnz"],
        "homology.density": ratio(n["homology.nnz"], n["homology.entries"]),
        "homology.snf_calls": calls["homology.snf"],
        "homology.snf_s": total["homology.snf"],
        "homology.rational_s": total["homology.rational"],
        "homology.pi1_calls": calls["homology.pi1"],
        "homology.pi1_s": total["homology.pi1"],
        "homology.pi1_inconclusive": n["homology.pi1_inconclusive"],
        "complexes.built": calls["complexes.construct"],
        "complexes.model_s": total["complexes.model"],
        "complexes.components_s": total["complexes.components"],
        "characters.chi_calls": calls["characters.chi"],
        "characters.compare_calls": calls["characters.compare"],
        "characters.self_s": sum((v for k, v in self_time.items()
                                  if k.startswith("characters.")), 0.0),
        "nervecycle.find_s": total["nervecycle.find"],
        "nervecycle.validate_s": total["nervecycle.validate"],
        "nervecycle.path_vertices": n["nervecycle.path_vertices"],
        "verify.checks": n["verify.checks"],
        "verify.checks_failed": n["verify.checks_failed"],
    }
    for claim in claims:
        values[f"verify.{claim}_s"] = total[f"verify.{claim}"]
    return values
