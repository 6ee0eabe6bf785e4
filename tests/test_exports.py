"""Every name a locpriv module exports must exist in that module.

A stale entry in ``__all__`` fails only when someone imports it (or on
``from module import *``), so deletions are checked here, along with the
annotations of every exported function and class. Every exported function
must also be reached from the library or the benchmark, and so must every
public method and property of an exported class, so test-only references
live in ``tests/helpers.py`` instead. Likewise every defaulted parameter
of those functions and methods must be passed somewhere in the library or
the benchmark, so no option is set only by the tests.
"""
import ast
import glob
import inspect
import math
import os
import typing

import locpriv

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# Exported functions that nothing in src/ or bench/ calls, with the reason.
# Empty: the Monte Carlo estimators the acceptance criteria use live in
# tests/helpers.py, on top of metrics.run_trials.
UNREACHED_ALLOWED: dict[str, str] = {}

def test_all_names_exist():
    for module_name in locpriv.__all__:
        module = getattr(locpriv, module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} is not defined"


def test_public_annotations_resolve():
    # Under postponed evaluation an annotation that names a deleted type is
    # never evaluated, so resolve every public function, class and method.
    for module_name in locpriv.__all__:
        module = getattr(locpriv, module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            typing.get_type_hints(obj)
            if inspect.isclass(obj):
                for _, method in inspect.getmembers(obj, inspect.isfunction):
                    typing.get_type_hints(method)


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _exported_functions(tree: ast.Module) -> set[str]:
    exported = _exported_names(tree)
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in exported
    }


def _references(tree: ast.Module) -> set[str]:
    """Names and attributes used in the module, each outside the top-level
    def of the same name (so recursion does not count as a caller)."""
    found = set()

    def walk(node, inside):
        if isinstance(node, ast.Name) and node.id != inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    for node in tree.body:
        walk(node, node.name if isinstance(node, ast.FunctionDef) else None)
    return found


def _src_and_bench_trees() -> list[tuple[str, ast.Module, bool]]:
    """(path, syntax tree, whether it is a locpriv module) per source file."""
    paths = sorted(
        glob.glob(os.path.join(ROOT, "src", "locpriv", "*.py"))
        + glob.glob(os.path.join(ROOT, "bench", "*.py"))
    )
    trees = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        trees.append((path, tree, os.sep + "locpriv" + os.sep in path))
    return trees


def test_exported_functions_are_reached_from_src_or_bench():
    exported, referenced = {}, set()
    for path, tree, in_library in _src_and_bench_trees():
        if in_library:
            for name in _exported_functions(tree):
                exported[name] = os.path.basename(path)
        referenced |= _references(tree)
    assert set(UNREACHED_ALLOWED) <= set(exported)
    unreached = sorted(
        f"{module}:{name}"
        for name, module in exported.items()
        if name not in referenced and name not in UNREACHED_ALLOWED
    )
    assert unreached == [], "exported but only the tests reach them"


def _exported_class_members(tree: ast.Module) -> set[str]:
    """Public methods and properties defined in the exported classes."""
    exported = _exported_names(tree)
    return {
        f"{node.name}.{member.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in exported
        for member in node.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    }


def test_exported_class_members_are_reached_from_src_or_bench():
    # A method or property that only the tests read is dead surface, just
    # like an unreached exported function.
    members, referenced = set(), set()
    for _, tree, in_library in _src_and_bench_trees():
        if in_library:
            members |= _exported_class_members(tree)
        referenced |= _references(tree)
    unreached = sorted(m for m in members if m.split(".")[1] not in referenced)
    assert unreached == [], "class members only the tests reach"


def _defaulted_parameters(tree: ast.Module) -> list[tuple]:
    """(qualified name, def name, position, parameter) for each parameter
    with a default of an exported function or of a public method of an
    exported class. The position counts the arguments a call passes (so a
    method's ``self`` is skipped) and is None for a keyword-only one."""
    exported = _exported_names(tree)
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            defs.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    static = any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in member.decorator_list
                    )
                    defs.append((f"{node.name}.{member.name}", member, 0 if static else 1))
    found = []
    for qualname, func, bound in defs:
        positional = func.args.posonlyargs + func.args.args
        first = len(positional) - len(func.args.defaults)
        for index in range(first, len(positional)):
            found.append((qualname, func.name, index - bound, positional[index].arg))
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                found.append((qualname, func.name, None, arg.arg))
    return found


def test_defaulted_parameters_are_passed_from_src_or_bench():
    # A default that only the tests override is a test-only option: the
    # library and the benchmark always run the default.
    params, calls = [], []
    for _, tree, in_library in _src_and_bench_trees():
        if in_library:
            params += _defaulted_parameters(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                splat = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.append((name, math.inf if splat else len(node.args), keywords))

    def passed(name, position, parameter):
        return any(
            callee == name
            and (
                (position is not None and n_positional > position)
                or parameter in keywords
                or None in keywords  # a **mapping may pass anything
            )
            for callee, n_positional, keywords in calls
        )

    unpassed = sorted(
        f"{qualname}({parameter})"
        for qualname, name, position, parameter in params
        if not passed(name, position, parameter)
    )
    assert unpassed == [], "defaults only the tests override"


def _library_calls(names) -> list[tuple]:
    """(module, top-level def, callee) for each call in src/ of a name in
    ``names``, by function name or attribute."""
    calls = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "locpriv", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in names:
                        calls.append((module, getattr(top, "name", None), name))
    return sorted(calls)


def test_attacks_are_called_only_by_the_trial_scorer():
    # Every loop that attacks a trial scores it through metrics.score_trial,
    # so each attack has exactly one call site in the library.
    assert _library_calls(("posterior_pi1", "map_assignment")) == [
        ("metrics.py", "score_trial", "map_assignment"),
        ("metrics.py", "score_trial", "posterior_pi1"),
    ]
    # and solves once for both: outside the attacks themselves, the only
    # call of the shared solve is the trial scorer's
    assert _library_calls(("solve_assignment",)) == [
        ("adversary.py", "_solved", "solve_assignment"),
        ("metrics.py", "score_trial", "solve_assignment"),
    ]


def test_sampled_trials_run_only_in_the_trial_loop():
    # The sweep, the audit's synthetic rerun and the lemma flatness check
    # draw, simulate and score through metrics.run_trials; only the audit's
    # attack on the fitted traces, which samples nothing, scores by itself.
    assert _library_calls(("simulate_attack_trial", "score_trial")) == [
        ("harness.py", "audit", "score_trial"),
        ("metrics.py", "run_trials", "score_trial"),
        ("metrics.py", "run_trials", "simulate_attack_trial"),
    ]


def test_trials_are_named_only_by_the_trial_loop():
    # metrics.run_trials names each trial it runs, so no caller steps its
    # generator to name them; the audit's two sections and the lemma
    # battery's flatness check keep their outer labels.
    assert _library_calls(("_naming",)) == [
        ("harness.py", "audit", "_naming"),
        ("harness.py", "audit", "_naming"),
        ("harness.py", "run_lemma_battery", "_naming"),
        ("metrics.py", "run_trials", "_naming"),
    ]


# Each module imports only modules before it in this order.
LAYER_ORDER = (
    "anonymization",
    "adversary",
    "mobility",
    "markov",
    "metrics",
    "proofcheck",
    "harness",
    "cli",
)


def _package_imports(tree: ast.Module) -> set[str]:
    """The locpriv modules a module imports (``from . import x`` or
    ``from .x import y``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found |= {alias.name for alias in node.names}
            else:
                found.add(node.module.split(".")[0])
    return found


def test_modules_import_only_earlier_layers():
    paths = glob.glob(os.path.join(ROOT, "src", "locpriv", "*.py"))
    modules = {os.path.basename(p)[:-3] for p in paths} - {"__init__"}
    assert modules == set(LAYER_ORDER)
    late = []
    for index, module in enumerate(LAYER_ORDER):
        with open(os.path.join(ROOT, "src", "locpriv", module + ".py")) as fh:
            tree = ast.parse(fh.read())
        for imported in _package_imports(tree):
            if LAYER_ORDER.index(imported) >= index:
                late.append(f"{module} imports {imported}")
    assert late == []


# Sufficient statistics, likelihoods, profile fits and the per-user
# trajectory samplers (whose CDF tables only the models build) belong to
# the model: the library reaches them only through IidModel and
# MarkovModel methods.
MODEL_OWNED = {
    "count_stats",
    "transition_stats",
    "likelihood_matrix_iid",
    "likelihood_matrix_markov",
    "fit_iid_profile",
    "fit_markov_profile",
    "sample_trajectory_iid",
    "sample_trajectory_markov",
}


def test_model_owned_functions_are_reached_only_through_the_models():
    stray = []

    def walk(node, module, cls, func):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name in MODEL_OWNED and cls not in ("IidModel", "MarkovModel"):
            stray.append(f"{module}:{cls or func or '<module>'} uses {name}")
        for child in ast.iter_child_nodes(node):
            walk(child, module, cls, func)

    for path in sorted(glob.glob(os.path.join(ROOT, "src", "locpriv", "*.py"))):
        with open(path) as fh:
            walk(ast.parse(fh.read()), os.path.basename(path), None, None)
    assert stray == []
