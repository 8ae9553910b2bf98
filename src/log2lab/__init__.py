"""log2lab: exact floor-log2 counting identities, certified dyadic enclosures
of G(n) and log2 n!, and interval-verdict comparisons of factorial bounds."""

from .bounds import (
    BoundRow,
    Verdict,
    VerdictStatus,
    compare_bounds,
    error_term_e2,
    paper_equality_certificate,
    paper_lower_bound_log2,
    ramanujan_b_agreement,
    ramanujan_bounds_log2,
    robbins_bounds_log2,
)
from .dyadic import DyadicInterval, DyadicRational
from .enclosures import (
    FracTerm,
    G_enclosure,
    ResourceLimitError,
    frac_log2_enclosure,
    log2_factorial_by_factorial,
    log2_factorial_by_sum,
    log2_factorial_enclosure,
    log2_factorial_running,
    log2_fraction,
    log2_int_enclosure,
)
from .exact import (
    DomainError,
    IdentityViolationError,
    all_floor_sum,
    binary_digit_sum,
    ceil_log2,
    even_count_oracle,
    floor_log2_ratio,
    odd_floor_sum,
    pair_enumeration_oracle,
    power_of_two_ratio,
)
from .sweep import (
    SweepConfig,
    UsageError,
    run_bounds_sweep,
    run_error_term,
    run_verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "BoundRow",
    "DomainError",
    "DyadicInterval",
    "DyadicRational",
    "FracTerm",
    "G_enclosure",
    "IdentityViolationError",
    "ResourceLimitError",
    "SweepConfig",
    "UsageError",
    "Verdict",
    "VerdictStatus",
    "all_floor_sum",
    "binary_digit_sum",
    "ceil_log2",
    "compare_bounds",
    "error_term_e2",
    "even_count_oracle",
    "floor_log2_ratio",
    "frac_log2_enclosure",
    "log2_factorial_by_factorial",
    "log2_factorial_by_sum",
    "log2_factorial_enclosure",
    "log2_factorial_running",
    "log2_fraction",
    "log2_int_enclosure",
    "odd_floor_sum",
    "paper_equality_certificate",
    "paper_lower_bound_log2",
    "pair_enumeration_oracle",
    "power_of_two_ratio",
    "ramanujan_b_agreement",
    "ramanujan_bounds_log2",
    "robbins_bounds_log2",
    "run_bounds_sweep",
    "run_error_term",
    "run_verify_theorem",
]
