"""Exact generating functions of banded, eventually periodic infinite matrices.

The corner generating function of such a matrix (the series whose z^n
coefficient is the (1,1) entry of the n-th power) is algebraic; this package
computes it by three independent exact routes, reconstructs an annihilating
polynomial certifying the algebraicity, and exposes the weighted and affine
extensions along with a batch CLI.
"""

from .annihilator import (
    AnnihilatorPoly,
    ClosedForm,
    check_closed_form_sqrt,
    reconstruct,
    verify,
)
from .banded import (
    BandedSpec,
    BlockWeights,
    block_reduce,
    choose_block_size,
    from_block_weights,
    verify_block_size,
)
from .engine import (
    cross_check,
    direct_route,
    first_difference,
    fixed_point_route,
    laurent_route,
    symbol_determinant,
)
from .errors import BandedGFError
from .fields import PrimeField, QQ, RationalField
from .identities import oracle_comparison, run_identity_suite
from .laurent import accumulate
from .matseries import MatrixSeries
from .section5 import (
    AffineRecursion,
    EventuallyPolySeq,
    affine_pipeline,
    weighted_series,
)
from .series import Series
from .walks import class_sums, u_table

__version__ = "0.1.0"

__all__ = [
    "AffineRecursion",
    "AnnihilatorPoly",
    "BandedGFError",
    "BandedSpec",
    "BlockWeights",
    "ClosedForm",
    "EventuallyPolySeq",
    "MatrixSeries",
    "PrimeField",
    "QQ",
    "RationalField",
    "Series",
    "accumulate",
    "affine_pipeline",
    "block_reduce",
    "check_closed_form_sqrt",
    "choose_block_size",
    "class_sums",
    "cross_check",
    "direct_route",
    "first_difference",
    "fixed_point_route",
    "from_block_weights",
    "laurent_route",
    "oracle_comparison",
    "reconstruct",
    "run_identity_suite",
    "symbol_determinant",
    "u_table",
    "verify",
    "verify_block_size",
    "weighted_series",
]
