"""skewlab: skew-corner-free sets in grids and tori.

Constructions (digit products and sphere pair sets), exact and
FFT-accelerated counting, branch-and-bound extremal search, and the
Fourier-analytic density-increment machinery, all behind one CLI.
"""

from .core import (
    Ambient,
    GridSet,
    Witness,
    dumps_skewset,
    embed_torus,
    grid,
    load_skewset,
    loads_skewset,
    make_grid_set,
    save_skewset,
    torus,
    translate,
    transpose,
)
from .errors import (
    CapabilityError,
    ConsistencyError,
    CoordinateError,
    FalsificationError,
    FormatError,
    ParameterError,
    PrecisionError,
    SkewLabError,
)
from .verify import (
    CornerCount,
    count_corners,
    count_skew_corners_fft,
    count_skew_corners_naive,
    find_skew_corner,
    is_bi_skew_corner_free,
    is_skew_corner_free,
)
from .construct import (
    BaseSet,
    GrowthRow,
    SphereParams,
    bi_sphere_construction,
    freiman_embed,
    growth_table,
    product_construction,
    sphere_construction,
    sphere_family,
    verify_free,
)
from .search import (
    SearchResult,
    STableRow,
    find_base_set,
    max_skew_corner_free,
    s_table,
)
from .fourier import (
    AnalysisConfig,
    AnnihilationReport,
    CharacterSet,
    DichotomyReport,
    FourierTable,
    GvnReport,
    ParsevalReport,
    Progression,
    TwoDFunction,
    annihilating_progression,
    annihilation_check,
    balanced_function,
    check_gvn,
    column_marginal,
    column_normalized,
    dft,
    dichotomy_report,
    dirichlet,
    lambda_form,
    parseval_bound,
    row_transforms,
    set_lambda_form,
    technical_select,
    zeta_value,
)
from .increment import (
    BlockIncrement,
    IncrementOutcome,
    PigeonholeResult,
    ProductSetReport,
    ProgressionIncrement,
    horizontal_increment,
    increment_step,
    pigeonhole_square,
    product_set_experiment,
    vertical_l2_increment,
    vertical_linfty_increment,
)

__version__ = "0.1.0"
