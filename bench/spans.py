"""In-memory span recorder for the traced run, and the per-layer metrics
derived from its spans.

The recorder wraps the toolkit's public functions where the modules bind
them, so calls between layers are recorded without editing the package.
Each span has a name, start, end, parent and thread; spans stay in
memory and are written out when the run ends.  A layer's self time is a
span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time

import workloads

# Functions recorded at each layer boundary.  rankme and alpha_req are
# left out on purpose: the dynamics loop calls rankme once per recorded
# step, and a span there would cost more than the call.
TRACED = {
    "io": ("read_matrix", "write_matrix", "load_manifest", "sweep"),
    "spectral": ("center_features", "covariance_spectrum", "spectral_metrics",
                 "ablate_spectrum"),
    "ngram": ("build_index", "infty_gram_next", "joint_loglik",
              "distributional_memorization", "spearman_rho"),
    "dynamics": ("run_trajectory", "check_conservation", "check_growth_law",
                 "phase_summary", "primacy_selection_probe"),
    "evalmetrics": ("pass_at_k", "dpo_loss", "dpo_nce_identity"),
}
MODULES = ("cli", "io", "spectral", "ngram", "dynamics", "evalmetrics")

# CLI operations, by the names workloads.py gives them, and their group.
OP_GROUP = {"sweep": "sweep", "sweep_ablate": "sweep", "ngram_build": "ngram",
            "ngram_query": "ngram", "memorize": "score", "passk": "score",
            "dpo_check": "score", "toy_run": "toy", "toy_verify": "toy"}
WORKLOAD_OF = {g: w for w, groups in workloads.WORKLOADS.items() for g in groups}


def _moves(*groups, metric="session_s"):
    return sorted({f"{WORKLOAD_OF[g]}:{metric}" for g in groups})


# Every per-layer metric: unit, better, and the end-to-end metrics it
# should move, as "workload:metric".  Times are busy time summed over one
# pass unless the name says per call or per step.
PER_LAYER = {
    "io.write_matrix_s": ("s", "lower", _moves("sweep", metric="setup_s")),
    "io.read_matrix_s": ("s", "lower", _moves("sweep")),
    "io.sweep_s": ("s", "lower", _moves("sweep")),
    "io.sweep_ablate_s": ("s", "lower", _moves("sweep")),
    "spectral.center_features_s": ("s", "lower", _moves("sweep")),
    "spectral.covariance_spectrum_s": ("s", "lower", _moves("sweep")),
    "spectral.covariance_spectrum_calls": ("count", "lower", _moves("sweep")),
    "spectral.ablate_spectrum_s": ("s", "lower", _moves("sweep")),
    "spectral.spectral_metrics_s": ("s", "lower", _moves("sweep")),
    "ngram.build_index_s": ("s", "lower", _moves("ngram")),
    "ngram.build_index_peak_mib": ("MiB", "lower",
                                   _moves("ngram", metric="peak_rss_mib")),
    "ngram.infty_gram_next_p50_us": ("us", "lower", _moves("ngram")),
    "ngram.infty_gram_next_p90_us": ("us", "lower", _moves("ngram")),
    "ngram.joint_loglik_tokens_per_s": ("1/s", "higher", _moves("ngram")),
    "ngram.hit_ratio": ("ratio", "higher", _moves("ngram")),
    "ngram.distributional_memorization_s": ("s", "lower", _moves("score")),
    "ngram.spearman_rho_s": ("s", "lower", _moves("score")),
    "dynamics.run_trajectory_dense_us_per_step": ("us", "lower", _moves("toy")),
    "dynamics.run_trajectory_sparse_us_per_step": ("us", "lower", _moves("toy")),
    "dynamics.check_growth_law_s": ("s", "lower", _moves("toy")),
    "dynamics.check_conservation_s": ("s", "lower", _moves("toy")),
    "dynamics.phase_summary_s": ("s", "lower", _moves("toy")),
    "dynamics.primacy_selection_probe_s": ("s", "lower", _moves("toy")),
    "evalmetrics.pass_at_k_s": ("s", "lower", _moves("score")),
    "evalmetrics.dpo_loss_s": ("s", "lower", _moves("score")),
    "evalmetrics.dpo_nce_identity_s": ("s", "lower", _moves("score")),
    "cli.import_s": ("s", "lower", _moves("sweep", "ngram", "toy", "score")),
    **{f"cli.{op}_s": ("s", "lower", _moves(OP_GROUP[op])) for op in OP_GROUP},
    **{f"cli.{op}_self_s": ("s", "lower", _moves(OP_GROUP[op])) for op in OP_GROUP},
}


class Recorder:
    """Collects spans; one stack of open spans per thread."""

    def __init__(self):
        self.spans = []  # dicts, in order of opening
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> dict:
        stack = self._stack()
        # a worker thread's first span belongs to whatever the main thread
        # is doing: the sweep's thread pool runs inside io.sweep
        if stack:
            parent = stack[-1]["id"]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]["id"]
        else:
            parent = None
        with self._lock:
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "thread": threading.get_ident(), "start": time.perf_counter(),
                    "end": None, **attrs}
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced


class Patch:
    """Replaces each traced function, in every toolkit module that binds
    it, by a recording wrapper; ``restore`` puts the originals back."""

    def __init__(self, recorder: Recorder):
        import importlib

        self.saved = []
        wrappers = {}
        for layer, names in TRACED.items():
            home = importlib.import_module(f"specgeo.{layer}")
            for name in names:
                fn = getattr(home, name)
                wrappers[fn] = recorder.wrap(fn, f"{layer}.{name}")
        for modname in MODULES:
            mod = importlib.import_module(f"specgeo.{modname}")
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def restore(self) -> None:
        for mod, attr, value in reversed(self.saved):
            setattr(mod, attr, value)
        self.saved.clear()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list) -> float:
    """Duration minus the union of the children's intervals inside it."""
    intervals = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                       for c in children)
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return duration(span) - covered


def pass_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass, from that pass's spans."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def root_of(span):
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span

    def op_of(span):
        return root_of(span).get("op")

    def total(name):
        return sum(duration(s) for s in spans if s["name"] == name)

    out = {
        "io.read_matrix_s": total("io.read_matrix"),
        "spectral.center_features_s": total("spectral.center_features"),
        "spectral.covariance_spectrum_s": total("spectral.covariance_spectrum"),
        "spectral.ablate_spectrum_s": total("spectral.ablate_spectrum"),
        "spectral.spectral_metrics_s": total("spectral.spectral_metrics"),
        "ngram.build_index_s": total("ngram.build_index"),
        "ngram.distributional_memorization_s":
            total("ngram.distributional_memorization"),
        "dynamics.check_growth_law_s": total("dynamics.check_growth_law"),
        "dynamics.check_conservation_s": total("dynamics.check_conservation"),
        "dynamics.phase_summary_s": total("dynamics.phase_summary"),
        "dynamics.primacy_selection_probe_s":
            total("dynamics.primacy_selection_probe"),
        "evalmetrics.pass_at_k_s": total("evalmetrics.pass_at_k"),
        "evalmetrics.dpo_loss_s": total("evalmetrics.dpo_loss"),
        "evalmetrics.dpo_nce_identity_s": total("evalmetrics.dpo_nce_identity"),
    }
    for op, key in (("sweep", "io.sweep_s"), ("sweep_ablate", "io.sweep_ablate_s")):
        out[key] = sum(duration(s) for s in spans
                       if s["name"] == "io.sweep" and op_of(s) == op)
    out["spectral.covariance_spectrum_calls"] = sum(
        1 for s in spans
        if s["name"] == "spectral.covariance_spectrum" and op_of(s) == "sweep_ablate")

    for kind, key in ((True, "dynamics.run_trajectory_dense_us_per_step"),
                      (False, "dynamics.run_trajectory_sparse_us_per_step")):
        runs = [s for s in spans if s["name"] == "dynamics.run_trajectory"
                and (op_of(s) == "toy_run") == kind]
        steps = sum(root_of(s)["steps"] for s in runs)
        out[key] = 1e6 * sum(duration(s) for s in runs) / steps

    loglik = [s for s in spans if s["name"] == "ngram.joint_loglik"]
    tokens = sum(root_of(s)["tokens"] for s in loglik)
    out["ngram.joint_loglik_tokens_per_s"] = tokens / sum(duration(s) for s in loglik)

    for op in OP_GROUP:
        calls = [s for s in spans if s["parent"] is None and s.get("op") == op]
        out[f"cli.{op}_s"] = statistics.median(duration(s) for s in calls)
        out[f"cli.{op}_self_s"] = statistics.median(
            self_time(s, children.get(s["id"], [])) for s in calls)
    return out
