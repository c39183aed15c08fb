"""The names the package exports."""

import types

import lampirs

EXPORTED = [
    "ConsistencyError",
    "ContextError",
    "DomainError",
    "FormatError",
    "GroupElement",
    "InvariantReport",
    "LampirsError",
    "LaurentPoly",
    "LaurentVector",
    "Poly",
    "PreconditionError",
    "ResourceBudgetError",
    "SplitMix64",
    "SubgroupMeasure",
    "SubgroupTriple",
    "Submodule",
    "WindowDistribution",
    "WindowSubgroup",
    "approach_sequence",
    "block_average_marginal",
    "block_shift_term_marginal",
    "build_approach_sequence",
    "cb_levels",
    "certify_convergence",
    "classify_limit",
    "conjugate_element",
    "construct_with_invariants",
    "convergence_report",
    "count_submodules",
    "cylinder_contains",
    "delta_site",
    "enumerate_irreducibles",
    "geometric_series",
    "invariant_report",
    "level_closed_form",
    "majority_invariance_estimate",
    "majority_symmetric_difference",
    "poly_gcd",
    "poset_less",
    "power",
    "sampler_law_report",
    "splice_measures",
    "submodules_of_codimension",
    "truncation",
    "tv_distance",
    "unbounded_rank_certificate",
    "vanish_sequence",
    "window_of_submodule",
]


def test_exported_names_are_pinned():
    # Submodules are left out: which of them are attributes of the package
    # depends on what the test session has imported before.
    names = sorted(
        name
        for name in dir(lampirs)
        if not name.startswith("_") and not isinstance(getattr(lampirs, name), types.ModuleType)
    )
    assert names == EXPORTED
