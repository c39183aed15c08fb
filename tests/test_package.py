"""The names the package exports, and the order its modules import in."""

import ast
import pathlib
import types

import lampirs

SOURCE = pathlib.Path(lampirs.__file__).parent

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


def test_imports_are_at_module_top_and_acyclic():
    # Every import sits at the top level of its module, none inside a
    # function, class or branch, and the ``from .x import`` edges between
    # the package's modules form an acyclic graph.
    edges, nested = {}, []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        edges[path.stem] = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if id(node) not in top:
                nested.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                edges[path.stem].update(targets)
    assert nested == []
    done, visiting = set(), []

    def visit(module):
        assert module not in visiting, " -> ".join(visiting + [module])
        if module in done:
            return
        visiting.append(module)
        for target in sorted(edges[module]):
            visit(target)
        visiting.pop()
        done.add(module)

    for module in sorted(edges):
        visit(module)
