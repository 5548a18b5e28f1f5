#!/usr/bin/env python3
"""Benchmark of the specgeo toolkit.

    python3 bench/run.py --workload {sweep_toy,ngram_score} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The seed generates every input (see
workloads.py).  With ``--trace 0`` the workload's operations run in
passes, one at a time, until ``--seconds`` have passed: each CLI
operation as a child process (``python -m specgeo.cli`` with
``PYTHONPATH=src``), and ``joint_loglik``, which no subcommand exposes,
through the library in this process.  With ``--trace 1`` every
operation of all four tool groups runs in-process through
``specgeo.cli.cli_dispatch``, with span recorders around the toolkit's
functions, and the per-layer metrics are medians over traced passes.

Every output is checked against an independent reference (checks.py) the
first time it is produced and must repeat byte for byte afterwards.  The
last line of stdout is the JSON result; the line before it holds the
provenance.  Inputs and child logs go under ``.bench_out/`` and are
removed at the end; the result and the spans stay in
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better, bound); bound is the share of the parent's median
# by which a later change may worsen the metric before it is rejected.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.1),
    "session_s": ("s", "lower", 0.25),
}
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5  # short set-ups repeat until this much time is measured
DEADLINE_S = 170  # a run must end within 180 s
IMPORT_PROBES = 3
SPEARMAN_PROBES = 5


class Bench:
    """One benchmark run: inputs, references, and the passes over them."""

    def __init__(self, workload: str, seed: int, trace: bool):
        from specgeo import ngram

        self.ngram = ngram
        self.workload, self.seed, self.trace = workload, seed, trace
        self.start = time.perf_counter()
        self.work = OUT / f"work-{workload}-{seed}-{int(trace)}"
        self.logs = self.work / "logs"
        self.env = {k: v for k, v in os.environ.items() if k != "SPECGEO_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.digests = {}  # (group, op index) -> digest of the first output
        self.refs = {}
        self.attempted = self.failed = 0
        self.errors = []

    # ------------------------------------------------------------ set-up

    def setup(self, groups, repeats: int, min_seconds: float) -> list:
        """Write the inputs ``repeats`` times, or more while less than
        ``min_seconds`` were measured; returns each time."""
        times = []
        while len(times) < repeats or sum(times) < min_seconds:
            if self.work.exists():
                shutil.rmtree(self.work)
            t0 = time.perf_counter()
            self.inputs = workloads.generate(self.workload, self.seed, self.work, groups)
            times.append(time.perf_counter() - t0)
        self.logs.mkdir()
        self.input_bytes = {
            g: sum(f.stat().st_size for f in (self.work / g).rglob("*") if f.is_file())
            for g in self.inputs}
        # compile the package's bytecode before anything is timed
        self.child(["--version"], "warmup")
        if "ngram" in self.inputs:
            ng = self.inputs["ngram"].data
            n = ng["tokens"].size
            self.index = self.ngram.build_index(self.ngram.TokenCorpus(
                tokens=ng["tokens"], vocab_size=ng["vocab"],
                doc_boundaries=np.arange(ng["doc_len"], n + 1, ng["doc_len"])))
        return times

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    # ------------------------------------------------------------ operations

    def child(self, argv: list, name: str, command=("-m", "specgeo.cli")):
        """Run one child to completion.  Its stdout and stderr go to files:
        a query's JSON output is larger than a pipe buffer."""
        out_path, err_path = self.logs / f"{name}.out", self.logs / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *command, *argv], cwd=self.work,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes()

    def in_process(self, argv: list):
        from specgeo import cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.cli_dispatch(argv)
                except Exception:  # a crash fails the operation, not the run
                    traceback.print_exc()
                    code = -1
                elapsed = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        if code:
            sys.stderr.write(err.getvalue())
        return elapsed, code, out.getvalue().encode("utf-8")

    def loglik(self, recorder=None):
        """joint_loglik over every target; returns (seconds, results)."""
        results, elapsed = [], 0.0
        for target in self.inputs["ngram"].data["targets"]:
            span = recorder.span("bench.loglik", op="loglik", tokens=int(target.size)) \
                if recorder else contextlib.nullcontext()
            with span:
                t0 = time.perf_counter()
                results.append(self.ngram.joint_loglik(self.index, [], target))
                elapsed += time.perf_counter() - t0
        return elapsed, results

    # ------------------------------------------------------------ checks

    def verify(self, key, op, code: int, stdout: bytes, results=None) -> None:
        self.attempted += 1
        if code != 0:
            return self.fail(key, f"exit code {code}")
        if op.name == "loglik":
            h = hashlib.sha256()
            for total, probs in results:
                h.update(repr(total).encode() + probs.tobytes())
            dig = h.hexdigest()
        else:
            dig = checks.digest(stdout, self.work, op.outputs)
        if key in self.digests:
            if dig != self.digests[key]:
                self.fail(key, "output bytes differ from the first repeat")
            return
        self.digests[key] = dig
        for error in self.check(key[0], op, stdout, results):
            self.fail(key, error)

    def fail(self, key, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{key[0]}/{key[1]}: {message}")
        print(f"bench: FAILED {key[0]} op {key[1]}: {message}", file=sys.stderr)

    def ref(self, name, make):
        if name not in self.refs:
            self.refs[name] = make()
        return self.refs[name]

    def check(self, group: str, op, stdout: bytes, results) -> list:
        c, data, kind = checks, self.inputs[group].data, op.expect["kind"]
        if kind == "sweep":
            refs = self.ref("sweep", lambda: c.reference_sweep(
                data["matrices"], self.inputs["sweep"].size["k"]))
            picked = op.expect["entries"]
            return c.check_sweep(self.work / op.outputs[0], [refs[i] for i in picked],
                                 [self.work / f"sweep/ckpt{i}.mat" for i in picked],
                                 op.expect["k"])
        if kind in ("ngram_build", "ngram_query", "loglik"):
            scan = self.ref("scan", lambda: c.ScanIndex(
                data["tokens"], data["doc_len"], data["vocab"]))
            if kind == "ngram_build":
                return c.check_build(stdout, self.work / op.outputs[0],
                                     data["tokens"], data["vocab"])
            if kind == "ngram_query":
                return c.check_query(stdout, scan, data["contexts"][op.expect["context"]])
            errors = []
            for target, result in zip(data["targets"], results):
                errors += c.check_loglik(result, c.reference_loglik(scan, target))
            return errors
        if kind == "memorize":
            return c.check_memorize(stdout, c.reference_memorization(
                data["ids"], data["ref"], data["model"]))
        if kind == "passk":
            return c.check_passk(stdout, c.reference_passk(
                data["samples"], data["correct"], data["ks"]))
        if kind == "dpo":
            return c.check_dpo(stdout, c.reference_dpo(data["r_w"], data["r_l"]))
        if kind == "toy_run":
            return c.check_toy_run(self.work, op.expect["steps"])
        return c.check_toy_verify(stdout)

    # ------------------------------------------------------------ passes

    def one_pass(self, mode: str, recorder=None) -> dict:
        """Each operation of the generated groups once, in order.
        mode: "child", "in_process" or "traced"."""
        times, rss = {}, 0.0  # "group.index.name" -> seconds
        for group, inputs in self.inputs.items():
            for i, op in enumerate(inputs.ops):
                key = (group, i)
                if op.name == "loglik":
                    elapsed, results = self.loglik(recorder)
                    self.verify(key, op, 0, b"", results)
                elif mode == "child":
                    elapsed, code, peak, stdout = self.child(op.argv, f"{group}-{i}")
                    rss = max(rss, peak)
                    self.verify(key, op, code, stdout)
                else:
                    attrs = {"steps": op.expect["steps"]} if "steps" in op.expect else {}
                    span = recorder.span(f"cli.{op.name}", op=op.name, **attrs) \
                        if recorder else contextlib.nullcontext()
                    with span:
                        elapsed, code, stdout = self.in_process(op.argv)
                    self.verify(key, op, code, stdout)
                times[f"{group}.{i}.{op.name}"] = elapsed
        return {"times": times, "rss": rss}

    def passes(self, seconds: float, mode: str, recorder=None) -> list:
        """Passes until ``seconds`` have passed.  A pass that would end
        after that is not started, so a run's length stays bounded."""
        out, t0 = [], time.perf_counter()
        while True:
            first = len(recorder.spans) if recorder is not None else 0
            t = time.perf_counter()
            p = self.one_pass(mode, recorder)
            p["wall"] = time.perf_counter() - t
            if recorder is not None:
                p["spans"] = recorder.spans[first:]
            out.append(p)
            longest = max(p["wall"] for p in out)
            if (time.perf_counter() - t0 + longest > seconds
                    or self.remaining() < 1.5 * longest):
                return out

    # ------------------------------------------------------------ probes

    def probes(self, recorder) -> dict:
        """Per-layer numbers that need more calls than one pass makes."""
        import spans

        ng = self.inputs["ngram"].data
        first = len(recorder.spans)
        hits = 0
        for ctx in ng["probes"]:
            with recorder.span("bench.probe", op="probe"):
                hits += self.ngram.infty_gram_next(self.index, ctx).suffix_len_used >= 1
        times = [spans.duration(s) for s in recorder.spans[first:]
                 if s["name"] == "ngram.infty_gram_next"]

        sc = self.inputs["score"].data
        _, inv = np.unique(sc["ids"], return_inverse=True)
        trace = self.ngram.ProbTrace(
            np.exp(np.bincount(inv, weights=np.log(sc["ref"]))),
            np.exp(np.bincount(inv, weights=np.log(sc["model"]))))
        rho = []
        for _ in range(SPEARMAN_PROBES):
            t0 = time.perf_counter()
            self.ngram.spearman_rho(trace)
            rho.append(time.perf_counter() - t0)

        tracemalloc.start()
        try:
            self.ngram.build_index(self.index.corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        code = ("import time, sys; t = time.perf_counter(); import specgeo.cli; "
                "sys.stdout.write(repr(time.perf_counter() - t))")
        imports = []
        for i in range(IMPORT_PROBES):
            _, rc, _, out = self.child([], f"import-{i}", command=("-c", code))
            if rc == 0:
                imports.append(float(out))
        return {
            "ngram.infty_gram_next_p50_us": 1e6 * float(np.percentile(times, 50)),
            "ngram.infty_gram_next_p90_us": 1e6 * float(np.percentile(times, 90)),
            "ngram.hit_ratio": hits / len(ng["probes"]),
            "ngram.spearman_rho_s": statistics.median(rho),
            "ngram.build_index_peak_mib": peak / 2**20,
            "cli.import_s": statistics.median(imports),
        }


# ---------------------------------------------------------------- modes

def untraced(bench: Bench, seconds: float) -> tuple:
    setup = bench.setup(workloads.WORKLOADS[bench.workload], SETUP_REPEATS, SETUP_MIN_S)
    passes = bench.passes(seconds, "child")
    ops = {key: [p["times"][key] for p in passes] for key in passes[0]["times"]}
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(p["rss"] for p in passes),
        # Each operation at its fastest, summed.  Not the median: on a
        # shared 2-vCPU virtual machine, CPU speed drops 1.3-2x in phases
        # lasting seconds to minutes, and a run's median follows the share
        # of slow phases it happened to see; the fastest time follows it less.
        "session_s": sum(min(v) for v in ops.values()),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _, _) in END_TO_END.items()}
    return metrics, {"passes": len(passes), "setup_samples": setup,
                     "session_median_pass_s": statistics.median(
                         sum(p["times"].values()) for p in passes),
                     "op_seconds": ops}


def traced(bench: Bench, seconds: float) -> tuple:
    import spans

    recorder = spans.Recorder()
    patch = spans.Patch(recorder)
    try:
        bench.setup(workloads.GROUPS, 1, 0.0)
        write_s = sum(spans.duration(s) for s in recorder.spans
                      if s["name"] == "io.write_matrix")
        patch.restore()
        plain = bench.passes(0, "in_process")
        patch = spans.Patch(recorder)
        passes = bench.passes(seconds - plain[0]["wall"], "traced", recorder)
        extra = bench.probes(recorder)
    finally:
        patch.restore()
    per_pass = [spans.pass_metrics(p["spans"]) for p in passes]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values.update(extra)
    values["io.write_matrix_s"] = write_s
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _, _) in spans.PER_LAYER.items()}
    with open(OUT / "results" / f"{bench.workload}-{bench.seed}-spans.jsonl", "w",
              encoding="utf-8") as fh:
        for s in recorder.spans:
            fh.write(json.dumps(s) + "\n")
    traced_wall = statistics.median(p["wall"] for p in passes)
    return metrics, {"passes": len(passes), "traced_pass_s": traced_wall,
                     "untraced_pass_s": plain[0]["wall"],
                     "trace_overhead_s": traced_wall - plain[0]["wall"]}


def provenance(bench: Bench) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "workload": bench.workload, "seed": bench.seed, "trace": bench.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit, "src_sha256": src.hexdigest(),
        "input_bytes": bench.input_bytes,
    }


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "specgeo" / "cli.py").is_file():
        print(f"bench: no specgeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        metrics, extra = (traced if args.trace else untraced)(bench, args.seconds)
        info = {**provenance(bench), **extra,
                "error_rate": bench.failed / max(bench.attempted, 1),
                "errors": bench.errors[:20],
                "wall_s": time.perf_counter() - bench.start}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(
        json.dumps({"provenance": info, **result}, indent=1), encoding="utf-8")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
