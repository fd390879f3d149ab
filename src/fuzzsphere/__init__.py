"""Coherent-state quantization of the 2-sphere and fuzzy-sphere models.

The package provides exact 3j-symbols and SU(2) representation matrices,
spin spherical harmonics, deterministic sphere/plane quadrature, the
coherent-state quantization map with its closed form, and the Madore-style
hat-map construction, together with a CLI (``fuzzsphere``) exposing the
verification suite.
"""

from .algebra import ExactRadical, HalfInt, binomial, factorial, radical
from .csquant import (
    CoherentState,
    HarmonicExpansion,
    coherent_state,
    fock_demo,
    lower_symbol,
    quantize_expansion,
    quantize_quadrature,
    quantize_ssh_general,
    quantize_ylm_closed,
    reproducing_kernel,
    superop_action,
)
from .fuzzy import (
    FuzzyParams,
    Monomial3,
    c_of_ell_closed,
    classical_limit_report,
    hat_map,
    hat_ylm,
    ylm_as_polynomial,
)
from .quad import PlaneGrid, SphereGrid, SpherePoint
from .ssh import (
    OperatorMatrix,
    SshParams,
    lambda_matrices,
    rotation_operator,
    ssh_eval,
)
from .wigner import Su2Element, su2_from_rotation, three_j_twice, wigner_D

__version__ = "0.1.0"
