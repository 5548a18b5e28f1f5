"""Self-tests of the benchmark: seeded inputs, metric tables, checks."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tree_digest(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_inputs(tmp_path):
    # all four groups; ngram and score at full size, the others at smoke size
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.generate("ngram_score", seed, tmp_path / name)
    a, b, c = (_tree_digest(tmp_path / x) for x in "abc")
    assert a == b
    assert len(a) >= 10
    assert a != c


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert layer == {k: v[:2] for k, v in spans.PER_LAYER.items()}


def test_metric_names_and_units_are_valid():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert run.END_TO_END["setup_s"] == ("s", "lower", max(
        m["bound"] for m in BENCHMARK["end_to_end"]))
    for w in BENCHMARK["workloads"]:
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_every_per_layer_metric_names_an_end_to_end_target():
    for name, (_, _, targets) in spans.PER_LAYER.items():
        assert targets, name
        for target in targets:
            workload, metric = target.split(":")
            assert workload in workloads.WORKLOADS and metric in run.END_TO_END, name
        assert name.split(".")[0] in spans.MODULES, name


def test_self_time_subtracts_the_union_of_children():
    parent = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 4.0}, {"start": 3.0, "end": 5.0},
            {"start": 9.0, "end": 12.0}]
    assert spans.self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 1.0)


def test_scan_reference_backoff_stays_inside_documents():
    # documents [0 1 2] [0 1 3]: after "0 1" both 2 and 3 follow; after
    # "2" nothing follows inside its document, so "2" backs off to unigram
    scan = checks.ScanIndex(np.array([0, 1, 2, 0, 1, 3]), doc_len=3, vocab=4)
    depth, count, tally = scan.next_counts([0, 1])
    assert (depth, count, tally.tolist()) == (2, 2, [0, 0, 1, 1])
    depth, count, tally = scan.next_counts([2])
    assert (depth, count) == (0, 6)
    assert checks.reference_memorization(
        np.array(["a", "a", "b", "b", "c", "c"]),
        np.array([0.1, 0.2, 0.5, 0.5, 0.9, 0.9]),
        np.array([0.2, 0.2, 0.4, 0.6, 0.8, 0.9])) == pytest.approx(1.0)
