"""The package namespace: public names load their tool module on first use."""

import ast
import importlib
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
                r"need at least 3 records", r"cannot balance", r"seed must be >= 0")


def _sites(match) -> list:
    """``file:line`` of each node of the package's source that ``match`` accepts."""
    found = []
    for path in sorted(Path(specgeo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if match(node):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_each_owned_input_rule_is_raised_from_one_place():
    def raising(rule):  # every exception built, raised or returned
        return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                             and node.func.id.endswith("Error")
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


@pytest.mark.parametrize("match", [_calls("dumps"), _calls("write_text"), _index_layout],
                         ids=["json-dumps", "write-text", "index-keys"])
def test_each_output_format_is_stated_in_one_place(match):
    """JSON is formatted by ``_json_text``, output files are written by
    ``_write_files``, and ``_INDEX_KEYS`` is the index file's layout."""
    assert len(_sites(match)) == 1, _sites(match)
