"""log2lab: exact floor-log2 counting identities, certified dyadic enclosures
of G(n) and log2 n!, and interval-verdict comparisons of factorial bounds.

The public names are loaded on first use (PEP 562), so a command that needs
only the exact kernels never imports the enclosure code.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundRow",
        "Verdict",
        "VerdictStatus",
        "compare_bounds",
        "error_term_e2",
        "ramanujan_b_agreement",
        "ramanujan_bounds_log2",
        "robbins_bounds_log2",
    ),
    "dyadic": ("DyadicInterval", "DyadicRational"),
    "enclosures": (
        "G_enclosure",
        "log2_1p",
        "log2_factorial_by_factorial",
        "log2_factorial_enclosure",
        "log2_fraction",
        "log2_int_enclosure",
    ),
    "exact": (
        "DomainError",
        "IdentityViolationError",
        "ResourceLimitError",
        "all_floor_sum",
        "binary_digit_sum",
        "ceil_log2",
        "even_count_oracle",
        "odd_floor_sum",
        "pair_enumeration_oracle",
    ),
    "sweep": (
        "SweepConfig",
        "UsageError",
        "run_bounds_sweep",
        "run_error_term",
        "run_verify_theorem",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
