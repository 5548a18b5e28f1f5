"""The package namespace: public names load their tool module on first use."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import specgeo


def test_every_public_name_resolves_to_its_home_object():
    for name in specgeo.__all__:
        value = getattr(specgeo, name)
        if name != "__version__":
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name


def test_star_import_binds_all_names():
    namespace = {}
    exec("from specgeo import *", namespace)
    assert set(specgeo.__all__) <= set(namespace)
    assert namespace["rankme"] is specgeo.rankme


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        specgeo.no_such_name  # noqa: B018


def test_dir_lists_public_names():
    assert set(specgeo.__all__) <= set(dir(specgeo))


def test_import_loads_no_tool_module():
    code = ("import sys, specgeo\n"
            "print(sorted(m for m in sys.modules if m.startswith('specgeo')))\n"
            "specgeo.pass_at_k\n"
            "print(sorted(m for m in sys.modules if m.startswith('specgeo')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(specgeo.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.splitlines() == ["['specgeo']", "['specgeo', 'specgeo.evalmetrics']"]


def test_exports_agree_with_module_all():
    # each tool module's __all__ is read from _EXPORTS, the one list
    names = set()
    for module, exported in specgeo._EXPORTS.items():
        home = importlib.import_module(f"specgeo.{module}")
        assert set(home.__all__) == set(exported), module
        names |= set(home.__all__)
    assert set(specgeo.__all__) - {"__version__"} == names
    assert specgeo.pass_at_k_exact is specgeo.evalmetrics.pass_at_k_exact


# The top-level modules that code may import beside the standard library:
# the declared dependency and test extras of pyproject.toml.
_DECLARED = {"numpy", "pytest", "hypothesis", "mpmath"}


def test_imports_only_declared_dependencies():
    """A module importable here but not declared (scipy, say) would break
    an install from pyproject.toml; relative imports are the package's."""
    repo = Path(__file__).resolve().parent.parent
    files = sorted([*repo.glob("src/specgeo/*.py"), *repo.glob("tests/*.py")])
    own = {"specgeo"} | {path.stem for path in repo.glob("tests/*.py")}
    allowed = set(sys.stdlib_module_names) | _DECLARED | own
    undeclared = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            undeclared |= {f"{path.name}: {name}" for name in names
                           if name.split(".")[0] not in allowed}
    assert len(files) > 10 and not undeclared, sorted(undeclared)


def test_sources_parse_as_the_declared_python_floor():
    """Every module of ``src/`` and ``tests/`` parses with the grammar of the
    oldest Python that pyproject.toml declares.  This checks the grammar
    only (``except*`` fails it, say): a library function newer than that
    Python passes."""
    repo = Path(__file__).resolve().parent.parent
    pyproject = (repo / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                     pyproject).groups()))
    files = sorted([*repo.glob("src/specgeo/*.py"), *repo.glob("tests/*.py")])
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
    assert floor == (3, 10) and len(files) > 10


def test_benchmark_trace_patch_finds_and_restores_every_name(monkeypatch):
    # the benchmark's traced run wraps package functions by name, so a
    # renamed or dropped name breaks it; build its patch, then undo it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    spans = importlib.import_module("spans")
    modules = [importlib.import_module(f"specgeo.{name}") for name in spans.MODULES]
    before = [{k: id(v) for k, v in vars(mod).items()} for mod in modules]
    patch = spans.Patch(spans.Recorder())
    try:
        wrapped = {(mod.__name__, attr) for mod, attr, _ in patch.saved}
    finally:
        patch.restore()
    assert {(f"specgeo.{layer}", name) for layer, names in spans.TRACED.items()
            for name in names} <= wrapped
    assert [{k: id(v) for k, v in vars(mod).items()} for mod in modules] == before


# The text of each input rule that a library function or type owns.  The
# CLI reaches the rule through its owner and adds only the file, line or
# flag, so the text is built in exactly one place in the package.
_OWNED_RULES = (r"rewards must be finite", r"negative token id", r"label_odds must be",
                r"cannot index an empty corpus", r"\bk must be >= 1",
                r"need at least 3 records", r"cannot balance", r"seed must be >= 0",
                r"vocab_size must be >= 0", r"window \{window\} out of range for",
                r"mode must be retain_top or remove_top", r"k must be in \[1, ",
                r"reward gap overflows float64", r"ranks; a power-law fit needs 3",
                r"class counts must be nonnegative", r"labels must be in \[0, ",
                r"class counts are all zero", r"class counts must be finite whole numbers",
                r"labels must be whole numbers", r"eigenvalues must be finite",
                r"ranks must be whole numbers", r"RankMe series must be finite",
                r"sigma_floor_rel must be finite")


def _sites(match) -> list:
    """``file:line`` of each node of the package's source that ``match`` accepts."""
    found = []
    for path in sorted(Path(specgeo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if match(node):
                found.append(f"{path.name}:{node.lineno}")
    return found


def _error_calls(node) -> bool:
    """An exception built, raised or returned, with a text."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id.endswith("Error") and bool(node.args))


def test_each_owned_input_rule_is_raised_from_one_place():
    def raising(rule):
        return lambda node: (_error_calls(node)
                             and re.search(rule, ast.unparse(node)) is not None)

    sites = {rule: _sites(raising(rule)) for rule in _OWNED_RULES}
    assert all(len(found) == 1 for found in sites.values()), sites


def _calls(name):
    """A match of the calls of a function or method ``name``."""
    return lambda node: (isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None)))


_INDEX_KEYS = {"tokens", "doc_boundaries", "vocab_size", "sa"}


def _index_layout(node) -> bool:
    """A tuple, list or set that lists two or more index-file keys, or an
    ``np.savez`` call that names them, as keywords or in a dict."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        keys = {item.value for item in node.elts if isinstance(item, ast.Constant)}
    elif _calls("savez")(node):
        keys = {keyword.arg for keyword in node.keywords} | {
            key.value for inner in ast.walk(node) if isinstance(inner, ast.Dict)
            for key in inner.keys if isinstance(key, ast.Constant)}
    else:
        return False
    return len(keys & _INDEX_KEYS) > 1


def _strict_dumps(node) -> bool:
    """A ``dumps`` call that refuses NaN and infinities, as JSON does."""
    return _calls("dumps")(node) and any(
        keyword.arg == "allow_nan" and getattr(keyword.value, "value", None) is False
        for keyword in node.keywords)


@pytest.mark.parametrize("match, rule", [
    (_calls("dumps"), _strict_dumps), (_calls("write_text"), None), (_index_layout, None),
], ids=["json-dumps", "write-text", "index-keys"])
def test_each_output_format_is_stated_in_one_place(match, rule):
    """JSON is formatted by ``_json_text``, with finite numbers only, output
    files are written by ``_write_files``, and ``_INDEX_KEYS`` is the index
    file's layout."""
    assert len(_sites(match)) == 1, _sites(match)
    assert rule is None or _sites(rule) == _sites(match)  # the one site keeps it


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        specgeo._json_text({"x": [1.0, value]})


def test_matrix_magic_is_stated_once():
    """The matrix file's magic is one bytes constant of the package."""
    sites = _sites(lambda node: isinstance(node, ast.Constant)
                   and isinstance(node.value, bytes) and b"SPECGEO" in node.value)
    assert len(sites) == 1 and sites[0].startswith("__init__.py:"), sites
    matrix_io = importlib.import_module("specgeo.io")
    assert matrix_io.MAGIC is specgeo._MATRIX_MAGIC
    assert matrix_io._HEADER.size == len(matrix_io.MAGIC) + 17


def test_only_naming_prefixes_an_error_with_its_source():
    """An error names its file, line, key or flag through ``_naming``
    blocks, nested for a file's line: no other exception text starts with
    a formatted name, or a line number, and a colon, or gives its own
    line ``at line {...}``.  ``repeats line {...}`` names a second line."""
    def prefixed(node):
        return _error_calls(node) and re.search(
            r"^f['\"](line )?\{[^}]*\}: |at line \{", ast.unparse(node.args[0])) is not None

    lines, start = inspect.getsourcelines(specgeo._naming.__wrapped__)
    inside = [f"__init__.py:{n}" for n in range(start, start + len(lines))]
    sites = _sites(prefixed)
    assert len(sites) == 1 and sites[0] in inside, sites
