"""Verified maxima of Grunsky-coefficient bound objectives for bi-univalent functions."""

from .domain import CONSTANTS, REGION, DomainConstants, EdgeId, OmegaRegion
from .interval import CLAMP_TOL, Interval, NegativeRadicandError
from .objectives import CLAIM_NAMES, F1_FORM, OBJECTIVES, Objective, ObjectiveId
from .optimize import (
    BnBConfig,
    CriticalPoint,
    CriticalSearch,
    Extremum,
    NoBracketError,
    find_root_1d,
    interior_critical_points,
    maximize_1d,
    maximize_2d,
)
from .oracle import (
    PRESETS,
    GrunskyTable,
    TestVector,
    check_coefficient_identities,
    check_inequalities,
    gamma_from_series,
    grunsky_table,
    parse_coefficients,
)
from .report import ClaimRow, all_passed, emit, run_suite
from .series import BivariateSeries, InsufficientOrderError, PowerSeries, odd_transform

__all__ = [name for name in dir() if not name.startswith("_")]
