"""gcdlab: exact arithmetic over Q for heights of rational numbers,
generalized logarithmic gcds, almost-unit classification, truncated-ideal
combinatorics, and linear recurrence sequences, with a harness that scans
gcd inequalities on desk-scale grids."""

from .logreal import LogReal, logreal_sum
from .places import (
    DomainError,
    Place,
    PlaceSet,
    format_rational,
    log_abs,
    parse_rational,
    support,
    valuation,
)
from .heights import (
    AlmostUnitConfig,
    ProjPoint,
    TorusPoint,
    h_sbar,
    h_sbar_standard,
    height,
    hypersurface_local_height,
    is_almost_unit,
    local_height,
    proj_height,
    standard_height,
    torus_height,
    tuple_heights,
)
from .gengcd import log_gcd, log_gcd_outside, log_gcd_within
from .multipoly import (
    LaurentPoly,
    MultiPoly,
    coprime,
    laurent_normalize,
    parse_poly,
    poly_gcd,
)
from .hilbert import (
    GreedyBasis,
    InequalityConstants,
    TruncatedIdeal,
    delta_for_epsilon,
    dim_quotient_bruteforce,
    dim_quotient_formula,
    greedy_monomial_basis,
    inequality_constants,
    multiindex_sum,
    multiindex_sum_closed_form,
    ord_sum_check,
    truncated_ideal,
    veronese_basis,
    veronese_rank,
)
from .lrs import (
    PowerSum,
    RootGroup,
    ZeroStructure,
    compute_S0,
    from_recurrence,
    lrs_coprime,
    monomial_height,
    multiplicative_independence,
    power_sum_from_json,
    power_sum_to_json,
    root_group,
    to_laurent,
    zero_scan,
)
from .harness import (
    PkReport,
    PolyGcdReport,
    Rec1Report,
    SampleConfig,
    ScanConfig,
    ScanReport,
    SharpnessReport,
    UnitEquationReport,
    run_example_pk,
    run_hilbert_verify,
    run_lrs_scan,
    run_poly_gcd_experiment,
    run_rec1_scan,
    run_sharpness,
    solve_unit_equation,
)

__version__ = "0.1.0"
