"""Exact computation in the subgroup space of lamplighter groups.

Layers, bottom up; a module imports only modules listed above it, and
only at its top:

- ``errors``: the exception classes.
- ``fplinalg``: row reduction and null spaces over F_p.
- ``rng``: the seeded SplitMix64 streams behind every random draw.
- ``algebra``: arithmetic over F_p[x] and the Laurent ring, irreducibles,
  and the text of a polynomial.
- ``submodules``: periodic lamp subgroups and their one canonical form (the
  Laurent-Hermite form), rank/period invariants, counting, enumeration,
  the prescribed-invariant / convergent constructions, and the text of a
  vector.
- ``lamplighter``: group elements, subgroup triples, membership, conjugation,
  cylinder tests, and finite-window convergence certification.
- ``cbrank``: derivative levels of the divisor-product order, unboundedness
  certificates, and convergent-sequence construction/classification.
- ``irs``: exact window marginals of shift-invariant measures, block-average
  approximants with their distance bounds, seeded samplers, and splicing.
- ``formats``: the text and JSON formats of polynomials, vectors,
  presentations, triples, measures and distributions.
- ``selftest``: the seeded self-checks behind ``lampirs selftest``.
- ``cli``: reproducible command-line front end over all of the above.
"""

from .algebra import (
    LaurentPoly,
    Poly,
    enumerate_irreducibles,
    geometric_series,
    poly_gcd,
)
from .cbrank import (
    build_approach_sequence,
    cb_levels,
    classify_limit,
    level_closed_form,
    poset_less,
    truncation,
    unbounded_rank_certificate,
)
from .errors import (
    ConsistencyError,
    ContextError,
    DomainError,
    FormatError,
    LampirsError,
    PreconditionError,
    ResourceBudgetError,
)
from .irs import (
    SubgroupMeasure,
    WindowDistribution,
    WindowSubgroup,
    block_average_marginal,
    block_shift_term_marginal,
    convergence_report,
    majority_invariance_estimate,
    majority_symmetric_difference,
    sampler_law_report,
    splice_measures,
    tv_distance,
    window_of_submodule,
)
from .lamplighter import (
    GroupElement,
    SubgroupTriple,
    certify_convergence,
    conjugate_element,
    cylinder_contains,
    delta_site,
    power,
)
from .rng import SplitMix64
from .submodules import (
    InvariantReport,
    LaurentVector,
    Submodule,
    approach_sequence,
    construct_with_invariants,
    count_submodules,
    invariant_report,
    submodules_of_codimension,
    vanish_sequence,
)

__version__ = "0.1.0"
