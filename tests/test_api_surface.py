"""The package's public surface: exported names exist and have a user,
the users of an exported function pass each of its defaulted parameters,
the entry points the benchmark (perfbench/workloads.py) calls keep their
keywords, the README names only what exists, and the test oracles
(tests/oracles.py) stay independent of the package."""

import ast
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import eesscoex
from eesscoex import scenario

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    for info in pkgutil.iter_modules(eesscoex.__path__):
        yield importlib.import_module(f"eesscoex.{info.name}")


def _uses(path):
    """Names a file uses: loaded names, attributes and whole string constants
    (getattr and tracer targets), outside `__all__` and each name's own def or class."""
    used = set()

    def visit(node, own):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name not in own:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


def test_all_names_resolve():
    for module in _modules():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)


def test_readme_api_references_resolve():
    # Each `module.name` in the README whose module is a package submodule.
    modules = {module.__name__.rpartition(".")[2]: module for module in _modules()}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = [(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)`", text) if m in modules]
    assert refs
    missing = [f"{m}.{n}" for m, n in refs if not hasattr(modules[m], n)]
    assert not missing


def _user_files():
    """The package, the benchmark and the acceptance criteria: the code whose
    use of a public name makes it API."""
    return [*Path(eesscoex.__file__).parent.glob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
            ROOT / "tests" / "test_acceptance.py"]


def _exported():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            yield f"{module.__name__}.{name}", name, getattr(module, name)


def _exported_functions():
    return [export for export in _exported() if inspect.isfunction(export[2])]


def test_every_exported_function_has_a_user():
    # A command, a report, the benchmark or an acceptance criterion must
    # reach each public name, be it a function, a class or a constant; a
    # name only unit tests use is not API.
    used = set().union(*map(_uses, _user_files()))
    unused = [qualname for qualname, name, _ in _exported() if name not in used]
    assert not unused


def _calls(path):
    """(called name, positional argument count, keyword names) of each call in
    a file; a `*` argument counts as every position, a `**` one as every keyword."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            yield name, math.inf if starred else len(node.args), keywords


def test_every_default_parameter_is_passed_by_a_user():
    # A keyword that no command, report, benchmark or acceptance criterion
    # sets has one value in use; it belongs in the function's body.
    calls = [call for path in _user_files() for call in _calls(path)]
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    unset = []
    for qualname, name, function in _exported_functions():
        for index, param in enumerate(inspect.signature(function).parameters.values()):
            if param.default is param.empty:
                continue
            if not any(called == name and (param.name in keywords or None in keywords
                                           or (param.kind in positional and n_args > index))
                       for called, n_args, keywords in calls):
                unset.append(f"{qualname}({param.name}=)")
    assert not unset


def test_scenario_keeps_benchmark_entry_points():
    for name in ("CellConfig", "ScenarioConfig", "draw_channels",
                 "load_bundled_counties", "load_sensor_catalog"):
        assert callable(getattr(scenario, name)), name
    simulate = inspect.signature(scenario.simulate).parameters
    assert {"cell", "counties", "catalog", "power"} <= set(simulate)
    max_rate = inspect.signature(scenario.max_feasible_rate).parameters
    assert {"rate_grid_mbps", "cell", "counties", "channels", "catalog",
            "power_cache"} <= set(max_rate)
    assert list(inspect.signature(scenario.draw_channels).parameters) == [
        "cell", "seed", "trials"]


def _writes_past_the_constructor(path):
    """`file:line` of each `copy.copy`, `object.__setattr__` or `vars(...).update`
    call in a file: the ways to set a field that skip `__post_init__`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner, attr = node.func.value, node.func.attr
        if isinstance(owner, ast.Call):
            named = (getattr(owner.func, "id", None), attr) == ("vars", "update")
        else:
            named = (getattr(owner, "id", None), attr) in {("copy", "copy"),
                                                           ("object", "__setattr__")}
        if named:
            yield f"{path.name}:{node.lineno}"


def test_configs_are_built_only_by_their_constructor_or_replace():
    # A point written into a copied config would skip every field check.
    writes = [site for path in sorted(Path(eesscoex.__file__).parent.glob("*.py"))
              for site in _writes_past_the_constructor(path)]
    assert not writes


def test_oracles_import_nothing_from_the_package():
    # An oracle that reached the production route would check it against itself.
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # a dynamic import's module name
    assert not [name for name in names if name.split(".")[0] == "eesscoex"]
