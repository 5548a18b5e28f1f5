"""Seeded inputs and the operations of the benchmark's two workloads.

The toolkit has four tool groups: the spectral sweep, the infinity-gram,
the training-dynamics sandbox and the evaluation estimators.  Each
workload runs two of them on inputs of the sizes in FULL: the float
matrix tools (sweep, toy) or the token and record tools (ngram, score),
so a change to one side's layers should leave the other workload where
it was.  The traced run also runs the other workload's groups at the
small SMOKE sizes, so that every layer's numbers exist on every workload.

Everything here is a pure function of the seed: the same seed writes
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GROUPS = ("sweep", "ngram", "toy", "score")

# Full sizes keep one pass over a workload's operations to a few seconds,
# so a run holds several passes; BENCHMARK.json records the sizing.
FULL = {
    "sweep": dict(checkpoints=3, m=4096, d=768, k=32),
    "ngram": dict(docs=400, doc_len=500, vocab=50_000, ctx_len=32,
                  targets=4, target_len=64, probes=70),
    "toy": dict(run_steps=2500, run_every=1, verify_steps=25_000, verify_every=250),
    "score": dict(examples=2000, example_len=16, problems=1000,
                  samples=512, ks=(1, 16, 256), pairs=100_000),
}
SMOKE = {
    "sweep": dict(checkpoints=2, m=256, d=64, k=8),
    "ngram": dict(docs=40, doc_len=250, vocab=2000, ctx_len=16,
                  targets=4, target_len=32, probes=70),
    "toy": dict(run_steps=200, run_every=1, verify_steps=2000, verify_every=20),
    "score": dict(examples=200, example_len=16, problems=100,
                  samples=512, ks=(1, 16, 256), pairs=5000),
}
WORKLOADS = {"sweep_toy": ("sweep", "toy"), "ngram_score": ("ngram", "score")}

ZIPF_EXPONENT = 1.2
SUBSTITUTION_RATE = 0.1
ALPHA_RANGE = (0.5, 1.75)  # power-law exponents of the checkpoints


@dataclass
class Op:
    """One timed operation: a CLI invocation, or the library call "loglik"."""

    name: str
    argv: list  # specgeo CLI arguments; empty for the library call
    outputs: list = field(default_factory=list)  # files the op writes
    expect: dict = field(default_factory=dict)  # what the checks need


@dataclass
class GroupInputs:
    size: dict
    ops: list
    data: dict  # in-memory copies of what was written, for the checks


def generate(workload: str, seed: int, workdir: Path, groups=GROUPS) -> dict:
    """Write the inputs of ``groups`` under ``workdir``: the workload's own
    groups at full size, any other at smoke size.  Returns the inputs of
    each group, in GROUPS order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    makers = {"sweep": make_sweep, "ngram": make_ngram,
              "toy": make_toy, "score": make_score}
    out = {}
    for group in GROUPS:
        if group in groups:
            gdir = workdir / group
            gdir.mkdir(parents=True, exist_ok=True)
            size = (FULL if group in WORKLOADS[workload] else SMOKE)[group]
            rng = np.random.default_rng([seed, GROUPS.index(group)])
            out[group] = makers[group](rng, gdir, size)
    return out


# ---------------------------------------------------------------- sweep

def make_sweep(rng, gdir: Path, size: dict) -> GroupInputs:
    from specgeo import io as sio
    from specgeo.spectral import FeatureMatrix

    m, d, n = size["m"], size["d"], size["checkpoints"]
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    alphas = np.linspace(*ALPHA_RANGE, n)
    entries, matrices = [], []
    for i, alpha in enumerate(alphas):
        scale = np.arange(1, d + 1, dtype=np.float64) ** (-alpha / 2)
        data = ((rng.standard_normal((m, d)) * scale) @ q.T).astype(np.float32)
        name = f"ckpt{i}.mat"
        sio.write_matrix(FeatureMatrix(data), gdir / name, dtype="f32")
        entries.append({"label": f"step{i:02d}", "path": name})
        matrices.append(data)
    plain = {"entries": entries}
    # the ablated sweep takes the flattest and the steepest spectrum
    ablate = {"entries": [entries[0], entries[-1]],
              "options": {"ablation": {"k": size["k"], "mode": "retain_top"}}}
    for name, doc in (("plain.json", plain), ("ablate.json", ablate)):
        (gdir / name).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    ops = [
        Op("sweep", ["sweep", "--manifest", "sweep/plain.json",
                       "-o", "sweep/out_plain", "--json"],
           ["sweep/out_plain/report.json", "sweep/out_plain/report.csv"],
           {"kind": "sweep", "k": None, "entries": list(range(n))}),
        Op("sweep_ablate", ["sweep", "--manifest", "sweep/ablate.json",
                              "-o", "sweep/out_ablate", "--json"],
           ["sweep/out_ablate/report.json", "sweep/out_ablate/report.csv"],
           {"kind": "sweep", "k": size["k"], "entries": [0, n - 1]}),
    ]
    return GroupInputs(size, ops, {"matrices": matrices})


# ---------------------------------------------------------------- ngram

def _zipf(rng, vocab: int, count: int) -> np.ndarray:
    weights = np.arange(1, vocab + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ids = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(ids, vocab - 1).astype(np.int64)


def _excerpt(rng, tokens, docs, doc_len, length) -> np.ndarray:
    """A stretch of one document with at least one token after it."""
    doc = int(rng.integers(docs))
    start = doc * doc_len + int(rng.integers(doc_len - length))
    return tokens[start:start + length]


def make_ngram(rng, gdir: Path, size: dict) -> GroupInputs:
    docs, doc_len, vocab = size["docs"], size["doc_len"], size["vocab"]
    ctx_len, tlen = size["ctx_len"], size["target_len"]
    tokens = _zipf(rng, vocab, docs * doc_len)
    with open(gdir / "corpus.txt", "w", encoding="utf-8") as fh:
        for row in tokens.reshape(docs, doc_len):
            fh.write(" ".join(map(str, row.tolist())) + "\n")

    contexts = {
        "empty": np.zeros(0, dtype=np.int64),
        "excerpt": _excerpt(rng, tokens, docs, doc_len, ctx_len),
        "random": rng.integers(0, vocab, ctx_len),
    }
    targets = [_zipf(rng, vocab, tlen) for _ in range(size["targets"] // 2)]
    for _ in range(size["targets"] - len(targets)):
        boundary = int(rng.integers(1, docs)) * doc_len
        t = tokens[boundary - tlen // 2: boundary - tlen // 2 + tlen].copy()
        swap = rng.random(tlen) < SUBSTITUTION_RATE
        t[swap] = _zipf(rng, vocab, int(swap.sum()))
        targets.append(t)
    probes = []
    for _ in range(size["probes"]):
        probes.append(np.zeros(0, dtype=np.int64))
        probes.append(_excerpt(rng, tokens, docs, doc_len, ctx_len))
        probes.append(rng.integers(0, vocab, ctx_len))

    ops = [Op("ngram_build", ["ngram-build", "--corpus", "ngram/corpus.txt",
                                "--vocab-size", str(vocab),
                                "-o", "ngram/index.npz", "--json"],
              ["ngram/index.npz"], {"kind": "ngram_build"})]
    for name, ctx in contexts.items():
        ops.append(Op("ngram_query",
                      ["ngram-query", "--index", "ngram/index.npz",
                       "--context", " ".join(map(str, ctx.tolist())), "--json"],
                      [], {"kind": "ngram_query", "context": name}))
    ops.append(Op("loglik", [], [], {"kind": "loglik"}))
    data = {"tokens": tokens, "doc_len": doc_len, "vocab": vocab,
            "contexts": contexts, "targets": targets, "probes": probes}
    return GroupInputs(size, ops, data)


# ---------------------------------------------------------------- toy

def make_toy(rng, gdir: Path, size: dict) -> GroupInputs:
    toy_seed = int(rng.integers(2**31))
    configs = {
        "run.cfg": (size["run_steps"], size["run_every"]),
        "verify.cfg": (size["verify_steps"], size["verify_every"]),
    }
    for name, (steps, every) in configs.items():
        (gdir / name).write_text(
            f"steps = {steps}\nrecord_every = {every}\nseed = {toy_seed}\n",
            encoding="utf-8")
    ops = [
        Op("toy_run", ["toy-run", "--config", "toy/run.cfg",
                         "-o", "toy/out", "--json"],
           ["toy/out/trajectory.csv", "toy/out/summary.json"],
           {"kind": "toy_run", "steps": size["run_steps"]}),
        Op("toy_verify", ["toy-verify", "--config", "toy/verify.cfg", "--json"],
           [], {"kind": "toy_verify", "steps": size["verify_steps"]}),
    ]
    return GroupInputs(size, ops, {})


# ---------------------------------------------------------------- score

def make_score(rng, gdir: Path, size: dict) -> GroupInputs:
    n_ex, ex_len = size["examples"], size["example_len"]
    ref = rng.beta(2.0, 2.0, n_ex * ex_len)
    noise = rng.normal(0.0, 0.15, ref.size)
    model = np.clip(ref + noise, 1e-6, 1.0)
    ids = np.repeat([f"ex-{i:06d}" for i in range(n_ex)], ex_len)
    pos = np.tile(np.arange(ex_len), n_ex)
    for name, probs in (("ref.csv", ref), ("model.csv", model)):
        lines = ["example_id,token_index,prob"]
        lines += [f"{e},{p},{v!r}" for e, p, v in zip(ids, pos.tolist(), probs.tolist())]
        (gdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    n = size["samples"]
    correct = rng.binomial(n, rng.beta(0.3, 1.5, size["problems"]))
    lines = ["problem_id,N,c"] + [f"p{i},{n},{c}" for i, c in enumerate(correct.tolist())]
    (gdir / "passk.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    r_w = rng.normal(0.5, 3.0, size["pairs"])
    r_l = rng.normal(0.0, 3.0, size["pairs"])
    lines = ["r_w,r_l"] + [f"{a!r},{b!r}" for a, b in zip(r_w.tolist(), r_l.tolist())]
    (gdir / "dpo.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    ks = ",".join(map(str, size["ks"]))
    ops = [
        Op("memorize", ["memorize", "--ref", "score/ref.csv",
                          "--model", "score/model.csv", "--json"],
           [], {"kind": "memorize"}),
        Op("passk", ["passk", "--input", "score/passk.csv", "--k", ks, "--json"],
           [], {"kind": "passk"}),
        Op("dpo_check", ["dpo-check", "--input", "score/dpo.csv", "--json"],
           [], {"kind": "dpo"}),
    ]
    data = {"ids": ids, "ref": ref, "model": model, "samples": n,
            "correct": correct, "ks": size["ks"], "r_w": r_w, "r_l": r_l}
    return GroupInputs(size, ops, data)
