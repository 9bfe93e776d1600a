"""Partially symmetric monomial codes: construction, bounds, and decoding."""

from .bitmath import BitMatrix, BitVec, GF2mField, kernel_basis, rank, rref
from .bounds import (
    bec_minus_capacity,
    bound_curve,
    convergence_gap,
    fully_symmetric_lb,
    list_size_lb,
    partially_symmetric_lb,
)
from .calculus import (
    SymmetryProfile,
    derivative_subcode_dim,
    directional_derivative_code,
    is_invariant,
    monomial_partial,
    symmetry_profile,
)
from .channelconstruct import (
    bec_density_evolution,
    polar_code,
    sc_error_estimate,
    select_permutations,
)
from .codes import (
    LinearCode,
    Monomial,
    MonomialCode,
    ebch_code,
    load_code,
    monomial_min_distance,
    monomial_to_linear,
    rm_code,
    save_code,
)
from .construct import (
    ConstructionRequest,
    NonRepresentableError,
    biregular_subgraph,
    construct_partially_symmetric,
)
from .decode import ml_decode_batch, sc_decode_batch, sc_decode_orders, scl_decode_batch
from .sim import Bec, BiAwgn, SimConfig, SimResult, draw_frames, fer_curve, simulate_fer, transmit

__version__ = "0.1.0"
