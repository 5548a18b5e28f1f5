"""The file comparison of ``tools/compare_outputs.py``."""

import importlib
from pathlib import Path

import numpy as np
import pytest

ARRAYS = {"tokens": np.arange(10), "sa": np.array([3, 1, 2], dtype=np.int32)}


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    return importlib.import_module("compare_outputs")


def test_archives_compare_by_their_arrays(tool, tmp_path):
    np.savez(tmp_path / "plain.npz", **ARRAYS)
    np.savez_compressed(tmp_path / "packed.npz", **ARRAYS)
    assert (tmp_path / "plain.npz").read_bytes() != (tmp_path / "packed.npz").read_bytes()
    plain = tool.read_output(tmp_path / "plain.npz")
    assert tool.differences(plain, tool.read_output(tmp_path / "packed.npz")) == []


@pytest.mark.parametrize("changed, found", [
    ({**ARRAYS, "sa": np.array([3, 2, 1], dtype=np.int32)},
     ["entry 'sa': shape (3,) vs (3,), values differ"]),
    ({**ARRAYS, "sa": ARRAYS["sa"].astype(np.int64)}, ["entry 'sa': dtype int32 vs int64"]),
    ({"tokens": ARRAYS["tokens"], "extra": np.zeros(1)},
     ["entry 'sa' only in A", "entry 'extra' only in B"]),
], ids=["values", "dtype", "names"])
def test_a_changed_array_is_reported(tool, tmp_path, changed, found):
    np.savez(tmp_path / "a.npz", **ARRAYS)
    np.savez_compressed(tmp_path / "b.npz", **changed)
    a, b = (tool.read_output(tmp_path / name) for name in ("a.npz", "b.npz"))
    assert tool.differences(a, b) == found


def test_other_files_compare_byte_for_byte(tool, tmp_path):
    (tmp_path / "a.json").write_bytes(b'{"x": 1.5}\n')
    (tmp_path / "b.json").write_bytes(b'{"x": 1.6}\n')
    a, b = (tool.read_output(tmp_path / name) for name in ("a.json", "b.json"))
    assert tool.differences(a, a) == []
    assert tool.differences(a, b) == [
        "11 bytes vs 11 bytes, first difference at byte 8 (x: 1.5 vs 1.6)"]
    assert tool.differences(a, a[:-1]) == [
        "11 bytes vs 10 bytes, first difference at byte 10"]
    assert tool.differences(a, tool.read_output(tmp_path / "gone.json")) == [
        "11 bytes vs no file"]
    assert tool.differences(0, 1) == ["0 vs 1"]  # exit codes


@pytest.mark.parametrize("b, where", [
    (b'{"a": {"g": [0.5, 2.0], "z": 1}, "b": 0}', "a.g[1]: 1.0 vs 2.0"),
    (b'{"a": {"g": [0.5], "z": 2}, "b": 0}', "a.g[1]: 1.0 vs absent; a.z: 1 vs 2"),
    (b'{"a": {"g": [0.5, 1.0], "z": 1}, "b": 0, "c": null}', "c: absent vs null"),
    (b'{"a": {"g": [0.5, 1.0], "z": 1.0}, "b": 0}', "a.z: 1 vs 1.0"),
    (b'[1]', 'top level: {"a": {"g": [0.5, 1.0], "z": 1}, "b": 0} vs [1]'),
    (b'{"a":{"g":[0.5,1.0],"z":1},"b":0}', None),
    (b'{"a": {"g": [0.5, 1.0], "z": 1}, "b": 0', None),
], ids=["item", "missing-item", "missing-key", "int-vs-float", "top-level",
        "same-json", "not-json"])
def test_json_outputs_name_the_first_differing_path(tool, b, where):
    # every differing path is named, in sorted-key order: the first one first
    a =b'{"a": {"g": [0.5, 1.0], "z": 1}, "b": 0}'
    (line,) = tool.differences(a, b)
    assert line.startswith(f"{len(a)} bytes vs {len(b)} bytes, first difference at byte ")
    assert line.endswith(f" ({where})") if where else "(" not in line
