"""Exact SO(4) angular-momentum algebra for hydrogenic n-manifolds.

Wigner 3jm/6j symbols in exact (rational)*sqrt(rational) arithmetic,
parabolic <-> spherical basis changes, Runge-Lenz matrix elements, sum-rule
verification, Stark transfer tables and low-field diamagnetic operators.
"""

from .basis import (
    ManifoldState,
    ParabolicLabel,
    SphericalLabel,
    b_coeff,
    b_matrix,
    to_parabolic,
    to_spherical,
    unit_parabolic,
    unit_spherical,
)
from .diamagnetic import (
    DiamagneticParams,
    OperatorMatrix,
    h1_matrix,
    h2_matrix,
    h2_symmetry_report,
)
from .errors import (
    DomainError,
    ExactParseError,
    FactorialLimitError,
    InternalConsistencyError,
)
from .operators import (
    GeneratorWord,
    OperatorExpression,
    az_power_matrix,
    beta,
    beta_squared,
    expression_apply,
    expression_expectation,
    generator_apply,
    l_squared_expression,
    word_apply,
)
from .pfrational import FactorialTable
from .radical import RadicalSum, parse_exact, render_exact
from .stark import (
    TransitionTable,
    c_coefficient,
    chi_from_time,
    closed_form_report,
    p_bar,
    p_bar_closed,
    p_bar_6j_terms,
    p_table,
    p_transition,
    pbar_table,
)
from .sumrules import (
    SumRuleReport,
    az_moment_generic,
    l2_power_moment,
    sum_rule_az,
    sum_rule_l2,
)
from .wigner import (
    ThreeJmArgs,
    clebsch_gordan,
    wigner_3jm,
    wigner_6j,
)

__version__ = "0.1.0"
