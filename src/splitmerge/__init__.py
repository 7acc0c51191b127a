"""Split-merge diagram calculus and banded cube-complex exploration.

The package is organized bottom-up: trees and forests, diagrams and their
groupoid, characters and refined heights, abstract simplicial complexes and
link models, integral homology, banded fragments of the cube complex with
their cover nerve, cycle certificates, and the claim verification suite.
"""

from .trees import (LEAF, left_vine, mirror_forest, mirror_tree, parse_forest,
                    parse_tree, render_forest, render_tree, right_vine)
from .diagrams import (Diagram, apply_move, generator, identity, inverse,
                       is_reduced, merge_feet, mirror_diagram, multiply,
                       parse_diagram, reduce, render_diagram,
                       split_foot)
from .characters import (Character, MorseSpec, chi, chi0, chi1, epsilon,
                         refined_compare, refined_height)
from .complexes import (SimplicialComplex, ascending_link_model, cone,
                        descending_link_model, gm_linear, join, m_linear,
                        move_delta)
from .homology import (ChainComplex, betti_via_rational_ranks,
                       connectivity_evidence, cubical_chain_complex,
                       fragment_pair_homology, homology, homology_report,
                       pi1_trivial, relative_homology,
                       simplicial_chain_complex, smith_normal_form,
                       subdivision_complex)
from .steinfarley import (Fragment, L_value, R_value, ascending_link, cofaces,
                          cover_assign, descending_link, explore, link_of,
                          neighbors, nerve_data)
from .nervecycle import (CycleCertificate, find_nerve_cycle,
                         validate_certificate)
from .verify import RUNNERS, run_claim

__version__ = "0.1.0"

__all__ = [
    "LEAF", "left_vine", "right_vine", "mirror_tree", "mirror_forest",
    "parse_tree", "parse_forest", "render_tree", "render_forest",
    "Diagram", "parse_diagram", "render_diagram", "reduce", "is_reduced",
    "multiply", "inverse", "identity", "generator",
    "split_foot", "merge_feet", "apply_move", "mirror_diagram",
    "Character", "MorseSpec", "chi", "chi0", "chi1", "epsilon",
    "refined_height", "refined_compare",
    "SimplicialComplex", "gm_linear", "m_linear", "join", "cone",
    "move_delta", "ascending_link_model", "descending_link_model",
    "ChainComplex", "smith_normal_form", "betti_via_rational_ranks",
    "homology", "homology_report", "pi1_trivial", "connectivity_evidence",
    "simplicial_chain_complex", "cubical_chain_complex",
    "subdivision_complex", "relative_homology", "fragment_pair_homology",
    "Fragment", "explore", "cofaces", "link_of", "neighbors",
    "ascending_link", "descending_link", "L_value", "R_value",
    "cover_assign", "nerve_data",
    "CycleCertificate", "find_nerve_cycle", "validate_certificate",
    "RUNNERS", "run_claim",
    "__version__",
]
