"""monoball: exact computations with metric balls, Bohr sets and large spectra on small finite groups."""

__version__ = "0.3.0"

from .errors import CapExceededError, FalsifiedError, GroupValidationError
from .groups import (
    FiniteGroup,
    GroupSubset,
    build_group,
    closure,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    enumerate_subgroups,
    heisenberg_group,
    permutation_group,
    product_group,
    product_set,
    quaternion_group,
    subgroup_view,
    table_group,
)
from .setops import (
    appendix_growth_check,
    growth_profile,
    normalize_set,
    power_set,
    ruzsa_cover,
    set_predicates,
)
from .harmonic import (
    LinearCharacter,
    character_table,
    convolve,
    fourier_scalar,
    frobenius_residual,
    high_value_linearity_check,
    induce_class_function,
    indicator,
    is_hereditarily_monomial,
    is_monomial,
    linear_characters,
    plancherel_check,
)
from .metric import (
    PseudoMetricNorm,
    ball,
    ball_axioms_check,
    ball_dimension,
    bourgain_radius,
    validate_norm,
    word_norm,
    zero_norm,
)
from .bohr import (
    CharSet,
    bohr_norm,
    char_span,
    charset_sum,
    cor53_check,
    kfold_charset,
    linbohr,
    linbohr_squared,
    phase_norm,
    prop51_check,
)
from .spectra import (
    chang_cover,
    large_spectrum,
    lspec_doubling_cover,
    lspec_size_check,
    spectral_energy_check,
    spectrum_distance,
    spectrum_weight,
    standing_hypotheses,
)
from .pipeline import (
    PipelineConfig,
    find_l,
    freiman_ball,
    prop81_check,
)

__all__ = [
    "__version__",
    "CapExceededError", "FalsifiedError", "GroupValidationError",
    "FiniteGroup", "GroupSubset", "build_group", "closure", "conjugacy_classes",
    "cyclic_group", "dihedral_group", "enumerate_subgroups", "heisenberg_group",
    "permutation_group", "product_group", "quaternion_group", "subgroup_view",
    "table_group",
    "appendix_growth_check", "growth_profile", "normalize_set",
    "power_set", "product_set", "ruzsa_cover", "set_predicates",
    "LinearCharacter", "character_table", "convolve", "fourier_scalar",
    "frobenius_residual", "high_value_linearity_check", "induce_class_function",
    "indicator", "is_hereditarily_monomial", "is_monomial", "linear_characters",
    "plancherel_check",
    "PseudoMetricNorm", "ball", "ball_axioms_check", "ball_dimension",
    "bourgain_radius", "validate_norm", "word_norm", "zero_norm",
    "CharSet", "bohr_norm", "char_span", "charset_sum", "cor53_check",
    "kfold_charset", "linbohr", "linbohr_squared", "phase_norm", "prop51_check",
    "chang_cover", "large_spectrum", "lspec_doubling_cover", "lspec_size_check",
    "spectral_energy_check", "spectrum_distance", "spectrum_weight",
    "standing_hypotheses",
    "PipelineConfig", "find_l", "freiman_ball", "prop81_check",
]
