"""skewlab: skew-corner-free sets in grids and tori.

Constructions (digit products and sphere pair sets), exact and
FFT-accelerated counting, branch-and-bound extremal search, and the
Fourier-analytic density-increment machinery, all behind one CLI.

The public names below are imported from their modules on first use
(PEP 562), so `import skewlab` and a CLI subcommand load only the
modules they need.
"""

import importlib

_EXPORTS = {
    "ambient": (
        "Ambient",
        "grid",
        "torus",
    ),
    "core": (
        "GridSet",
        "Witness",
        "dumps_skewset",
        "embed_torus",
        "load_skewset",
        "loads_skewset",
        "make_grid_set",
        "save_skewset",
        "translate",
        "transpose",
    ),
    "errors": (
        "CapabilityError",
        "ConsistencyError",
        "CoordinateError",
        "FalsificationError",
        "FormatError",
        "ParameterError",
        "PrecisionError",
        "SkewLabError",
    ),
    "verify": (
        "CornerCount",
        "count_corners",
        "count_skew_corners_fft",
        "count_skew_corners_naive",
        "find_skew_corner",
        "is_bi_skew_corner_free",
    ),
    "construct": (
        "BaseSet",
        "GrowthRow",
        "SphereParams",
        "growth_table",
        "product_construction",
        "sphere_construction",
        "verify_free",
    ),
    "search": (
        "SearchResult",
        "find_base_set",
        "max_skew_corner_free",
    ),
    "fourier": (
        "AnalysisConfig",
        "AnnihilationReport",
        "CharacterSet",
        "DichotomyReport",
        "GvnReport",
        "ParsevalReport",
        "Progression",
        "TwoDFunction",
        "annihilating_progression",
        "annihilation_check",
        "check_gvn",
        "dichotomy_report",
        "dirichlet",
        "lambda_form",
        "parseval_bound",
        "row_transforms",
        "set_lambda_form",
        "technical_select",
        "zeta_value",
    ),
    "increment": (
        "IncrementOutcome",
        "increment_step",
    ),
    "experiment": (
        "ProductSetReport",
        "product_set_experiment",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
