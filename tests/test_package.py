"""The names the package exports, the order its modules import in, the
rules every entry point checks in one place, the one way every value type
is built, and the rule that every definition is named somewhere else."""

import ast
import pathlib
import re
import types
from collections import Counter

import pytest

import lampirs
from lampirs import algebra, cbrank, irs, submodules
from lampirs.algebra import Frozen, LaurentPoly, Poly, enumerate_irreducibles, irreducibles
from lampirs.cbrank import truncation
from lampirs.errors import ResourceBudgetError
from lampirs.formats import parse_poly
from lampirs.irs import (
    SubgroupMeasure,
    WindowDistribution,
    WindowSubgroup,
    block_average_marginal,
    majority_symmetric_difference,
    splice_measures,
)
from lampirs.lamplighter import GroupElement, SubgroupTriple, ball_size
from lampirs.submodules import (
    LaurentVector,
    Submodule,
    approach_sequence,
    construct_with_invariants,
    count_submodules,
    submodules_of_codimension,
)

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


def _budget_refusals():
    """(id, module patches, call, requested, budget): every budget refusal,
    each one past its budget.  Budgets the other tests shrink are shrunk the
    same way here."""
    full_1 = Submodule.full(1, 2)
    full, zero = SubgroupMeasure.point(full_1), SubgroupMeasure.point(Submodule.zero(1, 2))
    return [
        ("sieve-block", {algebra: {"ENUMERATION_BUDGET": 15}},
         lambda: list(irreducibles(2)), 16, 15),
        ("irreducible-count", {}, lambda: enumerate_irreducibles(2, 1001), 1001, 1000),
        ("approach-count", {},
         lambda: approach_sequence(Submodule.zero(1, 2), 1, 0, 1001), 1001, 1000),
        ("truncation", {cbrank: {"TRUNCATION_BUDGET": 38}}, lambda: truncation(8, 12), 39, 38),
        ("poly-span", {}, lambda: parse_poly("1+x^65537", 2), 65537, 65536),
        ("window-dim", {}, lambda: splice_measures(full, zero, 1, 0, 24, 1, 0), 25, 24),
        ("splice-key-bits", {irs: {"KEY_BITS": 2}},
         lambda: splice_measures(full, zero, 1, 0, 1, 1, 0), 3, 2),
        ("mu_m-bits", {}, lambda: block_average_marginal(full, 2**14283, 0, 0), 14284, 14283),
        ("majority-length", {irs: {"MAJORITY_LENGTH_BUDGET": 4}},
         lambda: majority_symmetric_difference(5), 5, 4),
        ("ball-dim", {}, lambda: ball_size(1, 2, 64, 0, 1), 129, 128),
        ("ball-keys", {}, lambda: ball_size(1, 2, 0, 50, 9900), 10**6 + 1, 10**6),
        ("form-columns", {submodules: {"FORM_COLUMN_BUDGET": 12}},
         lambda: full_1.form(13), 13, 12),
        ("form-entries", {submodules: {"FORM_ENTRY_BUDGET": 48}},
         lambda: full_1.form(7), 49, 48),
        ("count-bits", {}, lambda: count_submodules(2, 1, 14284), 14284, 14283),
        ("enumeration", {submodules: {"ENUMERATION_BUDGET": 3}},
         lambda: list(submodules_of_codimension(2, 1, 3)), 4, 3),
        ("rescaled-rank", {submodules: {"FORM_COLUMN_BUDGET": 12}},
         lambda: construct_with_invariants(1, 2, 13, 13), 13, 12),
        ("generator-entries", {submodules: {"FORM_ENTRY_BUDGET": 48}},
         lambda: construct_with_invariants(7, 2, 1, 7), 49, 48),
        ("residue-range", {submodules: {"RESIDUE_RANGE_BUDGET": 4}},
         lambda: full_1.reduce_vector(LaurentVector.unit(1, 2, 0, exponent=-5)), 5, 4),
    ]


@pytest.mark.parametrize(
    "patches, call, requested, budget",
    [pytest.param(*row[1:], id=row[0]) for row in _budget_refusals()],
)
def test_every_budget_refusal_has_one_shape(monkeypatch, patches, call, requested, budget):
    # One past its budget, each refusal reads "<what> <requested> exceeds
    # the budget <budget>" and carries both numbers.
    for module, values in patches.items():
        for name, value in values.items():
            monkeypatch.setattr(module, name, value)
    with pytest.raises(ResourceBudgetError) as err:
        call()
    shape = re.fullmatch(r"(.+) (\d+) exceeds the budget (\d+)", str(err.value))
    assert shape, str(err.value)
    assert (err.value.requested, err.value.budget) == (requested, budget)
    assert (int(shape[2]), int(shape[3])) == (requested, budget)


def test_each_entry_rule_is_written_once():
    # Every ``ResourceBudgetError`` is raised with three positional arguments
    # (what, requested, budget), so its message comes from the exception;
    # only ``irs._check_window`` raises the empty-window ``DomainError``,
    # only ``irs._check_same_window`` refuses operands on different windows
    # or lamp groups, and every operation on two of them calls it,
    # only ``Submodule._check_period`` the ``PreconditionError`` x^s U != U,
    # and only ``Submodule.form`` calls the Hermite engine, so an approach
    # term's form is built when it is read and never by the sequence.
    budget_calls, window_raises, period_raises, hermite_calls = [], [], [], []
    mismatch_raises, mismatch_checks = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        owner = {id(node): f.name for f in functions for node in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            where = f"{path.name}:{node.lineno}"
            if node.func.id == "laurent_hermite_form":
                hermite_calls.append((path.name, owner.get(id(node))))
            if node.func.id == "_check_same_window":
                mismatch_checks.add((path.name, owner.get(id(node))))
            if node.func.id == "ResourceBudgetError":
                three = len(node.args) == 3 and not node.keywords
                if not three or any(isinstance(a, ast.Starred) for a in node.args):
                    budget_calls.append(where)
            text = " ".join(
                part.value
                for part in ast.walk(node)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if node.func.id == "DomainError" and "empty window" in text:
                window_raises.append((path.name, owner.get(id(node))))
            mismatch = "window" in text and ("mismatch" in text or "different" in text)
            if node.func.id.endswith("Error") and mismatch:
                mismatch_raises.append((path.name, owner.get(id(node))))
            if node.func.id == "PreconditionError" and "U != U" in text:
                period_raises.append((path.name, owner.get(id(node))))
    assert budget_calls == []
    assert window_raises == [("irs.py", "_check_window")]
    assert mismatch_raises == [("irs.py", "_check_same_window")]
    binary = {"mixed_with", "tv_distance", "map_support", "__new__", "splice_measures"}
    assert mismatch_checks == {("irs.py", name) for name in binary}
    assert period_raises == [("submodules.py", "_check_period")]
    assert hermite_calls == [("submodules.py", "form")]


VALUE_TYPES = {
    "Poly", "LaurentPoly", "LaurentVector", "Submodule",
    "WindowSubgroup", "WindowDistribution", "GroupElement", "SubgroupTriple",
}


def _values():
    """One value of each value type."""
    f = Poly(2, (1, 1))
    v = LaurentVector(2, (LaurentPoly(2, 1, f),))
    full = Submodule.full(1, 2)
    ws = WindowSubgroup(2, 1, 0, 1, [(1, 1)])
    return [
        f, v.coords[0], v, full, ws, WindowDistribution.point(ws),
        GroupElement(v, 1), SubgroupTriple(1, full, v),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda value: type(value).__name__)
def test_every_value_type_is_immutable(value):
    # Assigning to any slot, or to any other name, is refused with the
    # type's name, and the value is left as it was.
    kind = type(value)
    slots = [name for cls in kind.__mro__ for name in getattr(cls, "__slots__", ())]
    assert slots
    for name in [*slots, "other"]:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match=rf"^{kind.__name__} is immutable$"):
            setattr(value, name, None)
        assert getattr(value, name, None) is before


def test_every_value_type_is_built_one_way():
    # ``object.__setattr__`` is read only to bind ``algebra._set``; no
    # ``_fill`` exists; only ``Frozen`` defines ``__setattr__``.  Every
    # value type subclasses ``Frozen`` and has a checking ``__new__`` that
    # returns ``cls._raw(...)``, and its ``_raw`` starts from
    # ``object.__new__(cls)``, never ``cls.__new__``.  A public slot is
    # written only in ``_raw``; elsewhere ``_set`` writes only a private
    # field kept lazily, and only in submodules.py, whose ``Submodule`` is
    # the one value that keeps what it finds later.  Every other value
    # type's ``_raw`` writes exactly its slots, none of them an empty
    # container or None to be filled later.
    setattr_reads, names, guards, public_writes = [], set(), [], []
    raws, news, slots, raw_writes, lazy_modules = {}, {}, {}, {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names.update(_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
                setattr_reads.append((path.name, node.lineno))
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {f.name: f for f in node.body if isinstance(f, ast.FunctionDef)}
            names.update(methods)
            if "__setattr__" in methods:
                guards.append(node.name)
            if "_raw" in methods:
                raws[node.name] = ast.unparse(methods["_raw"])
                news[node.name] = ast.unparse(methods["__new__"]) if "__new__" in methods else ""
                raw_writes[node.name] = {
                    call.args[1].value: ast.unparse(call.args[2])
                    for call in ast.walk(methods["_raw"])
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_set"
                }
                (declared,) = [
                    n.value for n in node.body
                    if isinstance(n, ast.Assign) and n.targets[0].id == "__slots__"
                ]
                slots[node.name] = set(ast.literal_eval(declared))
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef) or f.name == "_raw":
                continue
            for call in ast.walk(f):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_set":
                    lazy_modules.add(path.name)
                    field = getattr(call.args[1], "value", None)
                    if not isinstance(field, str) or not field.startswith("_"):
                        public_writes.append((path.name, f.name, ast.unparse(call)))
    (assign,) = [n for n in ast.parse((SOURCE / "algebra.py").read_text()).body
                 if isinstance(n, ast.Assign) and n.targets[0].id == "_set"]
    assert setattr_reads == [("algebra.py", assign.lineno)]
    assert ast.unparse(assign) == "_set = object.__setattr__"
    assert "_fill" not in names
    assert guards == ["Frozen"]
    assert set(raws) == VALUE_TYPES == {type(value).__name__ for value in _values()}
    for name, source in raws.items():
        assert "object.__new__(cls)" in source and "cls.__new__" not in source, name
        assert "return cls._raw(" in news[name], name
        assert issubclass(getattr(lampirs, name), Frozen), name
    assert public_writes == []
    assert lazy_modules == {"submodules.py"}
    for name in VALUE_TYPES - {"Submodule"}:
        assert slots[name] == raw_writes[name].keys(), name
        assert not {"{}", "[]", "set()", "None"} & {*raw_writes[name].values()}, name
    assert slots["Submodule"] > raw_writes["Submodule"].keys()


# Definitions that nothing else in the package names, each with its reason.
UNREFERENCED = {
    "submodules.Submodule.with_period": "bench/workloads.py calls it; it goes with the "
    "benchmark change that rewrites that line",
    "algebra.Poly.constant": "bench/workloads.py calls it",
    "lamplighter.SubgroupTriple.contains_subgroup": "public API that demos/04 calls",
    "cli._Parser.error": "argparse calls it",
}


def _names(node):
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            yield part.id
        elif isinstance(part, ast.Attribute):
            yield part.attr


def _attributes(node):
    for part in ast.walk(node):
        if isinstance(part, ast.Attribute):
            yield part.attr


def test_every_definition_is_named_elsewhere():
    # Every function, class and non-dunder method of the package is named
    # outside its own body somewhere in the package, or is a module-level
    # name the package exports; docstrings and comments do not count.  A
    # method, a direct child of a class, is named only by an attribute
    # access ``.name``, as a method is reached; any other definition by an
    # AST Name or Attribute.  The exceptions are UNREFERENCED, and each of
    # them is still unreferenced.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    attributes = Counter(name for tree in trees.values() for name in _attributes(tree))
    unreferenced = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, owner)
                continue
            qualified = f"{owner}.{child.name}" if owner else child.name
            dunder = child.name.startswith("__") and child.name.endswith("__")
            exported = not owner and qualified in EXPORTED
            method = isinstance(node, ast.ClassDef)
            counted, names = (attributes, _attributes) if method else (named, _names)
            inside = sum(name == child.name for name in names(child))
            if not dunder and not exported and counted[child.name] == inside:
                unreferenced.append(f"{module}.{qualified}")
            visit(child, module, qualified)

    for module, tree in trees.items():
        visit(tree, module, "")
    assert sorted(unreferenced) == sorted(UNREFERENCED)
