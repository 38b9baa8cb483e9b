"""Exact computer algebra for symmetric functions, their plethystic vertex
operators, and machine verification of the operator identities.

Everything is exact: integer or rational coefficients throughout, no
floating point, no sampling.
"""

from .partitions import (conjugate, format_partition, hooks_inside,
                         parse_partition, partition, partitions_of,
                         partitions_up_to, weight)
from .schurring import PowerExpr, SymFunc, format_symfunc
from .plethysm import (cauchy_dual_pi_schur, cauchy_pi_schur, dual_pi_schur,
                       pi_branch, pi_schur, pi_unbranch, plethysm,
                       series_term)
from .vertexops import (ChargedState, anticommutator, apply_chain, mode,
                        normal_ordered_string, string_chain, vertex_string,
                        zero_mode_normal_form)
from .oracle import (decompose, oracle_dual_pi_schur, oracle_pi_schur,
                     oracle_plethysm, oracle_product, schur_poly)
from .verifier import (SUITES, VerificationReport, verify_clifford,
                       verify_inverse_series, verify_multivertex,
                       verify_reordering, verify_route_agreement,
                       verify_zero_modes)
from .config import CliConfig, load_config
from .jsonform import (parse_symfunc, state_from_obj, state_to_obj,
                       symfunc_from_obj, symfunc_to_obj)

__version__ = "0.1.0"

__all__ = [
    "partition", "weight", "conjugate", "partitions_of", "partitions_up_to",
    "hooks_inside", "parse_partition", "format_partition",
    "SymFunc", "PowerExpr", "format_symfunc",
    "plethysm", "series_term",
    "pi_schur", "dual_pi_schur", "cauchy_pi_schur", "cauchy_dual_pi_schur",
    "pi_branch", "pi_unbranch",
    "ChargedState", "apply_chain", "string_chain", "vertex_string", "mode",
    "anticommutator", "normal_ordered_string", "zero_mode_normal_form",
    "schur_poly", "decompose", "oracle_product", "oracle_plethysm",
    "oracle_pi_schur", "oracle_dual_pi_schur",
    "VerificationReport", "SUITES", "verify_reordering",
    "verify_zero_modes", "verify_clifford", "verify_multivertex",
    "verify_route_agreement", "verify_inverse_series",
    "CliConfig", "load_config",
    "symfunc_to_obj", "symfunc_from_obj", "state_to_obj", "state_from_obj",
    "parse_symfunc",
    "__version__",
]
