"""Exact-arithmetic verification lab for coloured-partition identities.

The package expands coloured-partition generating functions, theta and
Pochhammer products, Hall-Littlewood specialisations and explicit
multisums as truncated formal power series with exact integer
coefficients, and checks the identities and functional equations tying
them together through a declarative catalog (see cmpplab.funceq and the
command-line front-end cmpplab.cli).
"""

from .series import Mismatch, QSeries, poch, qbin
from .cmpp import gen_fun, gordon_series
from .products import (PochFactor, ProductSpec, ThetaFactor, char_product,
                       expand, theta_q)
from .hall_littlewood import (Partition, frequencies, hl_chain_sum,
                              hl_inf_spec, hl_ls_2r1s, hl_principal_finite,
                              hl_sum_over_bounded, hl_symmetrization,
                              hl_weighted_chain, n_stat, prop_gow_sum)
from .multisums import (ag_sum, atomic_residual, f_sum, s_series, shun2_sum,
                        shun_sum, wz_sum)
from .macdonald import (HalfWeight, macdonald_sum, pi_product,
                        specialized_character_sum)
from .funceq import EquationSpec, ParamError, catalog, list_checks, residual
from .d2solver import solve_d2_system

__all__ = [
    "EquationSpec", "HalfWeight", "Mismatch", "ParamError", "Partition",
    "PochFactor", "ProductSpec", "QSeries", "ThetaFactor", "ag_sum",
    "atomic_residual", "catalog", "char_product", "expand", "f_sum",
    "frequencies", "gen_fun", "gordon_series", "hl_chain_sum",
    "hl_inf_spec", "hl_ls_2r1s", "hl_principal_finite",
    "hl_sum_over_bounded", "hl_symmetrization", "hl_weighted_chain",
    "list_checks", "macdonald_sum", "n_stat", "pi_product", "poch",
    "prop_gow_sum", "qbin", "residual", "s_series", "shun2_sum",
    "shun_sum", "solve_d2_system", "specialized_character_sum", "theta_q",
    "wz_sum",
]
