#!/usr/bin/env python3
"""Compare what two source trees of specgeo print and write on the
benchmark's inputs.

    python tools/compare_outputs.py SRC_A SRC_B [--seeds 11 21]

SRC_A and SRC_B are directories that hold a ``specgeo`` package (a
checkout's ``src``).  For each workload of ``bench/workloads.py`` and each
seed, each tree writes the inputs with ``workloads.generate`` under its
own package, then runs every operation that has an argv as
``python -m specgeo.cli`` with ``PYTHONPATH`` set to the tree.  Both trees
run in the same directory, one after the other, so a path in an output
reads the same.  The exit code, stdout, stderr and each file the
operation writes are compared: a ``.npz`` file by its entry names and the
dtype and values of each array (a zip's own bytes hold timestamps), any
other file byte for byte.  Where both sides of a byte difference parse as
JSON, the line also names every key path whose values differ.

Prints one line per difference and exits 1 if there is any, else 0.
Run from anywhere; ``bench/`` is read, never written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Writes one workload's inputs and prints its operations, one per line as
# name, then the argv and the outputs each NUL-separated, tab between.
_GENERATE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
inputs = workloads.generate(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
for group in inputs.values():
    for op in group.ops:
        if op.argv:
            print(op.name, "\\0".join(op.argv), "\\0".join(op.outputs), sep="\\t")
"""


def read_output(path: Path):
    """A file's content as compared: an ``.npz`` file as a dict of its
    arrays by entry name, any other file as its bytes; None if absent."""
    if not path.is_file():
        return None
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    return path.read_bytes()


def _what(content) -> str:
    if content is None:
        return "no file"
    if isinstance(content, dict):
        return f"an archive of {len(content)} arrays"
    if isinstance(content, bytes):
        return f"{len(content)} bytes"
    return repr(content)


_ABSENT = object()  # a key or item one side lacks; also: not JSON


def json_differences(a, b, path: str = "") -> list:
    """``path: x vs y`` at each place, in sorted-key order, where two
    parsed JSON values differ (``absent`` for a missing key or item); empty
    where they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        parts = [(f"{path}.{key}" if path else key, a.get(key, _ABSENT), b.get(key, _ABSENT))
                 for key in sorted(a.keys() | b.keys())]
    elif isinstance(a, list) and isinstance(b, list):
        parts = [(f"{path}[{i}]", a[i] if i < len(a) else _ABSENT,
                  b[i] if i < len(b) else _ABSENT) for i in range(max(len(a), len(b)))]
    elif type(a) is type(b) and a == b:
        return []
    else:
        return [f"{path or 'top level'}: {_json_what(a)} vs {_json_what(b)}"]
    return [line for where, x, y in parts for line in json_differences(x, y, where)]


def _json_what(value) -> str:
    return "absent" if value is _ABSENT else json.dumps(value, sort_keys=True)


def _parsed(content: bytes):
    try:
        return json.loads(content)
    except ValueError:  # not JSON, or not UTF-8
        return _ABSENT


def differences(a, b) -> list:
    """What differs between two contents (``read_output`` values or exit
    codes), one text each; empty when they are the same."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = [f"entry {name!r} only in {side}"
                 for side, mine, other in (("A", a, b), ("B", b, a))
                 for name in sorted(mine.keys() - other.keys())]
        for name in sorted(a.keys() & b.keys()):
            x, y = a[name], b[name]
            if x.dtype != y.dtype:
                found.append(f"entry {name!r}: dtype {x.dtype} vs {y.dtype}")
            elif not np.array_equal(x, y):
                found.append(f"entry {name!r}: shape {x.shape} vs {y.shape}, values differ")
        return found
    if type(a) is type(b) and a == b:
        return []
    text = f"{_what(a)} vs {_what(b)}"
    if isinstance(a, bytes) and isinstance(b, bytes):
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        text += f", first difference at byte {first}"
        parsed = _parsed(a), _parsed(b)
        if _ABSENT not in parsed and (where := json_differences(*parsed)):
            text += f" ({'; '.join(where)})"
    return [text]


def run_tree(src: Path, workload: str, seed: int, work: Path) -> dict:
    """Write the inputs under ``work`` with the tree ``src``, run each
    operation, and return {op label: {part: content}} in run order."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    listing = subprocess.run(
        [sys.executable, "-c", _GENERATE, str(BENCH), workload, str(seed), str(work)],
        env=env, capture_output=True, text=True)
    if listing.returncode:
        raise SystemExit(f"{src}: writing the {workload} inputs failed:\n{listing.stderr}")
    results = {}
    for k, line in enumerate(listing.stdout.splitlines()):
        name, argv, outputs = line.split("\t")
        proc = subprocess.run([sys.executable, "-m", "specgeo.cli", *argv.split("\0")],
                              cwd=work, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True)
        parts = {"exit code": proc.returncode, "stdout": proc.stdout,
                 "stderr": proc.stderr}
        for rel in filter(None, outputs.split("\0")):
            parts[rel] = read_output(work / rel)
        results[f"{k}:{name}"] = parts
    return results


def compare(src_a: Path, src_b: Path, seeds) -> list:
    """Every difference between the two trees, one line each."""
    sys.path.insert(0, str(BENCH))
    import workloads  # imports no specgeo module until it writes inputs

    lines = []
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                work = Path(tmp) / f"{workload}-{seed}"
                a, b = (run_tree(src, workload, seed, work) for src in (src_a, src_b))
                where = f"{workload} seed {seed}"
                lines += [f"{where}: operation {op} only in {side}"
                          for side, mine, other in (("A", a, b), ("B", b, a))
                          for op in mine if op not in other]
                for op in (op for op in a if op in b):
                    for part in dict.fromkeys([*a[op], *b[op]]):
                        lines += [f"{where}: {op}: {part}: {text}" for text in
                                  differences(a[op].get(part), b[op].get(part))]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 21])
    args = parser.parse_args(argv)
    lines = compare(args.src_a.resolve(), args.src_b.resolve(), args.seeds)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
