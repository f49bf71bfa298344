"""Exact computation of genus-0 double Hurwitz numbers by four independent
methods: brute-force factorization counting, cut-and-join evolution, the
character (Frobenius) formula, and a multisingularity recursion that expresses
every generating series as a polynomial in explicit generators z_{d,r}(q).
"""

from .cutjoin import (
    cut_join_apply,
    evolve,
    frobenius_eH,
    genus0_part,
    h_lambda_series,
    hurwitz_number_by_series,
)
from .kp import kp_residual, r_series, scaled_schur, tau_series
from .oracle import (
    ResourceBudgetError,
    oracle_count,
    oracle_count_calibrated,
    oracle_raw_count,
)
from .partitions import (
    aut_order,
    class_size,
    gen_binomial,
    multinomial,
    partitions_of,
    zee,
)
from .recursion import XTable, compute_x, h_poly, initial_x, make_xkey, populate_table
from .reduced import ReducedRecursion
from .series import GradedSeries, Truncation, TruncationMismatch
from .symgroup import CharTable, central_weight, mn_character, schur_in_power_sums
from .verify import SUITES, run_suite
from .zseries import ZPoly, psi_series, z_series, zpoly_eval

__all__ = [
    "CharTable",
    "GradedSeries",
    "ReducedRecursion",
    "ResourceBudgetError",
    "SUITES",
    "Truncation",
    "TruncationMismatch",
    "XTable",
    "ZPoly",
    "aut_order",
    "central_weight",
    "class_size",
    "compute_x",
    "cut_join_apply",
    "evolve",
    "frobenius_eH",
    "gen_binomial",
    "genus0_part",
    "h_lambda_series",
    "h_poly",
    "hurwitz_number_by_series",
    "initial_x",
    "kp_residual",
    "make_xkey",
    "mn_character",
    "multinomial",
    "oracle_count",
    "oracle_count_calibrated",
    "oracle_raw_count",
    "partitions_of",
    "populate_table",
    "psi_series",
    "r_series",
    "run_suite",
    "scaled_schur",
    "schur_in_power_sums",
    "tau_series",
    "z_series",
    "zee",
    "zpoly_eval",
]
