"""Independent references for the benchmark's output checks.

None of these call the toolkit: each result the program prints is
compared with a value computed here another way.  A check returns a
list of error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

LOG_FLOOR = 1e-12  # the toolkit's documented floor inside logs
RTOL = 1e-9


def _close(a, b, rtol=RTOL, atol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def digest(stdout: bytes, workdir: Path, outputs: list) -> str:
    """Hash of everything an operation produced, to compare repeats."""
    h = hashlib.sha256(stdout)
    for rel in outputs:
        h.update((workdir / rel).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- sweep

def reference_sweep(matrices: list, k: int) -> list:
    """RankMe, alpha_req, fit window and head energy from eigvalsh."""
    refs = []
    for data in matrices:
        x = data.astype(np.float64)
        x -= x.mean(axis=0)
        lam = np.maximum(np.linalg.eigvalsh(x.T @ x / x.shape[0])[::-1], 0.0)
        p = lam[lam > 0] / lam.sum()
        rank = float(np.exp(-np.sum(p * np.log(p))))
        usable = np.nonzero(lam > 1e-12 * lam[0])[0]
        hi = int(usable.max()) + 1
        idx = np.arange(1, hi + 1)[lam[:hi] > 1e-12 * lam[0]]
        slope = np.polyfit(np.log(idx), np.log(lam[idx - 1]), 1)[0]
        head = lam[:k]
        q = head[head > 0] / head.sum()
        refs.append({"rankme": rank, "alpha_req": float(-slope), "fit_window": [1, hi],
                     "retained_energy": float(head.sum() / lam.sum()),
                     "ablated_rankme": float(np.exp(-np.sum(q * np.log(q))))})
    return refs


def check_sweep(report_path: Path, refs: list, files: list, k) -> list:
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    errors = list(doc["errors"])
    if len(doc["records"]) != len(refs):
        return errors + [f"{len(doc['records'])} records, expected {len(refs)}"]
    for rec, ref, path in zip(doc["records"], refs, files):
        label = rec["label"]
        if rec["sha256"] != hashlib.sha256(path.read_bytes()).hexdigest():
            errors.append(f"{label}: sha256 differs from the file's")
        for key in ("rankme", "alpha_req"):
            if not _close(rec[key], ref[key], rtol=1e-7):
                errors.append(f"{label}: {key} {rec[key]!r} != reference {ref[key]!r}")
        if rec["fit_window"] != ref["fit_window"]:
            errors.append(f"{label}: fit window {rec['fit_window']} != {ref['fit_window']}")
        if k is None:
            continue
        abl = rec.get("ablation") or {}
        if not _close(abl.get("retained_energy", math.nan), ref["retained_energy"]):
            errors.append(f"{label}: retained_energy {abl.get('retained_energy')!r} "
                          f"!= head ratio {ref['retained_energy']!r}")
        if not _close(abl.get("rankme") or math.nan, ref["ablated_rankme"], rtol=1e-6):
            errors.append(f"{label}: ablated rankme {abl.get('rankme')!r} "
                          f"!= reference {ref['ablated_rankme']!r}")
    return errors


# ---------------------------------------------------------------- ngram

class ScanIndex:
    """Longest-suffix backoff by extending candidate start positions one
    token to the left at a time, over an inverted token index."""

    def __init__(self, tokens: np.ndarray, doc_len: int, vocab: int):
        self.tokens = tokens
        self.vocab = vocab
        self.doc_end = (np.arange(tokens.size) // doc_len + 1) * doc_len
        self.order = np.argsort(tokens, kind="stable")
        self.first = np.searchsorted(tokens[self.order], np.arange(vocab + 1))
        self.unigram = np.bincount(tokens, minlength=vocab)

    def next_counts(self, context) -> tuple:
        """(depth, context count, continuation tallies)."""
        ctx = np.asarray(context, dtype=np.int64)
        best = None
        if ctx.size:
            last = int(ctx[-1])
            starts = self.order[self.first[last]:self.first[last + 1]]
            length = 1
            while starts.size:
                room = self.doc_end[starts] - starts
                count = int(np.count_nonzero(room >= length))
                follow = starts[room >= length + 1] + length
                if count and follow.size:
                    best = (length, count, follow)
                if length == ctx.size:
                    break
                prev = starts - 1
                prev = prev[prev >= 0]
                starts = prev[self.tokens[prev] == ctx[-length - 1]]
                length += 1
        if best is None:
            return 0, int(self.tokens.size), self.unigram
        length, count, follow = best
        return length, count, np.bincount(self.tokens[follow], minlength=self.vocab)


def check_build(stdout: bytes, index_path: Path, tokens: np.ndarray, vocab: int) -> list:
    out = json.loads(stdout)
    errors = []
    if out["tokens"] != tokens.size or out["vocab_size"] != vocab:
        errors.append(f"build reported {out['tokens']} tokens, vocab {out['vocab_size']}")
    with np.load(index_path) as doc:
        if not np.array_equal(doc["tokens"], tokens):
            errors.append("stored tokens differ from the corpus")
        sa = doc["sa"]
    if sa.size != tokens.size or np.any(np.bincount(sa, minlength=tokens.size) != 1):
        errors.append("stored suffix array is not a permutation")
    elif np.any(np.diff(tokens[sa]) < 0):
        errors.append("stored suffix array is not sorted by first token")
    return errors


def check_query(stdout: bytes, scan: ScanIndex, context) -> list:
    out = json.loads(stdout)
    depth, count, tally = scan.next_counts(context)
    errors = []
    if out["suffix_len_used"] != depth or out["context_count"] != count:
        errors.append(f"depth/count {out['suffix_len_used']}/{out['context_count']} "
                      f"!= reference {depth}/{count}")
    probs = np.asarray(out["probs"])
    ref = tally / tally.sum()
    if probs.shape != ref.shape or not np.allclose(probs, ref, rtol=1e-12, atol=0):
        errors.append("next-token probabilities differ from the reference scan")
    return errors


def reference_loglik(scan: ScanIndex, target) -> tuple:
    total, probs = 0.0, []
    tgt = np.asarray(target, dtype=np.int64)
    for i, tok in enumerate(tgt.tolist()):
        _, _, tally = scan.next_counts(tgt[:i])
        p = float(tally[tok] / tally.sum())
        probs.append(p)
        total += math.log(max(p, LOG_FLOOR))
    return total, np.asarray(probs)


def check_loglik(result: tuple, ref: tuple) -> list:
    (total, probs), (ref_total, ref_probs) = result, ref
    errors = []
    if not np.allclose(probs, ref_probs, rtol=1e-12, atol=0):
        bad = int(np.argmax(~np.isclose(probs, ref_probs, rtol=1e-12, atol=0)))
        errors.append(f"loglik token {bad}: p {probs[bad]!r} != reference {ref_probs[bad]!r}")
    if not _close(total, ref_total, rtol=1e-12):
        errors.append(f"loglik {total!r} != reference {ref_total!r}")
    return errors


# ---------------------------------------------------------------- score

def average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    sx = x[order]
    new = np.r_[True, sx[1:] != sx[:-1]]
    group = np.cumsum(new) - 1
    starts = np.nonzero(new)[0]
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = ((starts + ends - 1) / 2.0 + 1.0)[group]
    return ranks


def reference_memorization(ids, ref, model) -> float:
    _, inv = np.unique(ids, return_inverse=True)
    rx = average_ranks(np.bincount(inv, weights=np.log(np.maximum(ref, LOG_FLOOR))))
    ry = average_ranks(np.bincount(inv, weights=np.log(np.maximum(model, LOG_FLOOR))))
    return float(np.corrcoef(rx, ry)[0, 1])


def check_memorize(stdout: bytes, expected: float) -> list:
    got = json.loads(stdout)["memorization"]
    if not _close(got, expected, atol=1e-12):
        return [f"memorization {got!r} != reference {expected!r}"]
    return []


def reference_passk(samples: int, correct, ks) -> dict:
    out = {}
    for k in ks:
        vals = [float(1 - Fraction(comb(samples - c, k), comb(samples, k)))
                for c in correct.tolist()]
        out[str(k)] = sum(vals) / len(vals)
    return out


def check_passk(stdout: bytes, expected: dict) -> list:
    got = json.loads(stdout)
    return [f"pass@{k} {got.get(k)!r} != reference {v!r}"
            for k, v in expected.items() if not _close(got.get(k, math.nan), v, rtol=1e-12)]


def reference_dpo(r_w, r_l) -> float:
    """-log sigmoid(r_w - r_l), evaluated literally, averaged exactly."""
    terms = -np.log(1.0 / (1.0 + np.exp(-(r_w - r_l))))
    return math.fsum(terms.tolist()) / terms.size


def check_dpo(stdout: bytes, expected: float) -> list:
    got = json.loads(stdout)
    errors = []
    if not _close(got["dpo_loss"], expected):
        errors.append(f"dpo_loss {got['dpo_loss']!r} != direct formula {expected!r}")
    if not got["max_identity_gap"] <= 1e-10:
        errors.append(f"identity gap {got['max_identity_gap']!r} > 1e-10")
    return errors


# ---------------------------------------------------------------- toy

def check_toy_run(workdir: Path, steps: int) -> list:
    summary = json.loads((workdir / "toy/out/summary.json").read_text(encoding="utf-8"))
    with open(workdir / "toy/out/trajectory.csv", "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    errors = []
    if rows != steps + 1:
        errors.append(f"trajectory.csv has {rows} rows, expected {steps + 1}")
    return errors + _residual(summary)


def check_toy_verify(stdout: bytes) -> list:
    return _residual(json.loads(stdout))


def _residual(doc: dict) -> list:
    r0 = doc["conservation"]["residual_step0"]
    return [] if r0 <= 1e-12 else [f"step-0 residual {r0!r} > 1e-12"]
