"""Acceptance suite: one test per release criterion.

Every test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (visible
with ``pytest -s``) and enforces the stated tolerances.  Criteria that
aggregate several clauses report each failed clause in the line.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import specgeo
from specgeo.dynamics import (
    ToyConfig,
    check_conservation,
    check_growth_law,
    init_balanced,
    phase_summary,
    run_trajectory,
    smooth_series,
)
from specgeo.evalmetrics import PreferenceTriple, dpo_nce_identity, pass_at_k_exact
from specgeo.io import load_manifest, sweep, write_matrix
from specgeo.ngram import (
    ProbTrace,
    TokenCorpus,
    build_index,
    infty_gram_next,
    spearman_rho,
    _average_ranks,
)
from specgeo.spectral import (
    EigenSpectrum,
    FeatureMatrix,
    ablate_spectrum,
    alpha_req,
    center_features,
    covariance_spectrum,
    rankme,
)

from oracles import (
    doc_end_array,
    fast_scan_infty_gram,
    ols_slope_intercept,
    passk_enumerate,
    rankme_mp,
    spearman_naive,
)
from test_io import synthetic_power_law_matrix


def report(num: int, description: str, failures: list, elapsed: float):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num} {status}: {description} ({elapsed:.2f}s)"
    if failures:
        line += " :: " + "; ".join(failures)
    print("\n" + line)
    assert not failures, line


@pytest.fixture(scope="module")
def default_trajectory():
    """Stock skew+bottleneck run, shared by criteria 5 and 7."""
    return run_trajectory(ToyConfig())


def test_criterion_1_rankme_correctness():
    t0 = time.perf_counter()
    failures = []
    for d in range(1, 65):
        got = rankme(EigenSpectrum(values=np.full(d, 3.7)))
        if abs(got - d) > 1e-10:
            failures.append(f"uniform d={d}: {got}")
    for d in (1, 2, 8, 64):
        values = np.zeros(d)
        values[0] = 2.5
        if rankme(EigenSpectrum(values=values)) != 1.0:
            failures.append(f"rank-1 d={d} not exactly 1.0")
    got = rankme(EigenSpectrum(values=np.array([0.75, 0.25])))
    oracle = rankme_mp([0.75, 0.25])
    if abs(got - oracle) > 1e-12 or abs(got - 1.754765) > 1e-6:
        failures.append(f"(0.75, 0.25) case: {got} vs oracle {oracle}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, "RankMe uniform/rank-1/entropy cases", failures, elapsed)


def test_criterion_2_alpha_recovery():
    t0 = time.perf_counter()
    failures = []
    i = np.arange(1, 201, dtype=float)
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        got, r2 = alpha_req(EigenSpectrum(values=i**-alpha))
        if abs(got - alpha) > 1e-8:
            failures.append(f"alpha={alpha}: fitted {got}")
        if r2 < 1 - 1e-12:
            failures.append(f"alpha={alpha}: r2={r2}")
    rng = np.random.default_rng(123)
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        noisy = i**-alpha * np.exp(rng.normal(scale=0.01, size=i.size))
        noisy = np.sort(noisy)[::-1]
        got, _ = alpha_req(EigenSpectrum(values=noisy))
        slope, _ = ols_slope_intercept(np.log(i), np.log(noisy))
        if abs(got - (-slope)) > 1e-10:
            failures.append(f"alpha={alpha}: disagrees with OLS oracle")
        if abs(got - alpha) > 0.05:
            failures.append(f"alpha={alpha}: noisy fit {got} off by >0.05")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(2, "power-law exponent recovery, clean and 1% noise", failures, elapsed)


def test_criterion_3_infty_gram_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    checked = 0
    for corpus_id in range(100):
        n = int(rng.integers(20, 501))
        vocab = int(rng.integers(2, 9))
        tokens = rng.integers(0, vocab, size=n)
        if rng.random() < 0.5:
            k = int(rng.integers(1, 4))
            cuts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
            boundaries = np.append(cuts, n)
        else:
            boundaries = np.array([n])
        corpus = TokenCorpus(tokens=tokens, doc_boundaries=boundaries,
                             vocab_size=vocab)
        index = build_index(corpus)
        ends = doc_end_array(n, boundaries.tolist())
        toks = tokens.tolist()
        contexts = [toks[max(0, p - 6): p] for p in range(n)]
        contexts += [rng.integers(0, vocab, size=int(rng.integers(1, 7))).tolist()
                     for _ in range(5)]
        for ctx in contexts:
            got = infty_gram_next(index, ctx)
            probs, depth, hits = fast_scan_infty_gram(tokens, ends, vocab, ctx)
            ok = (got.suffix_len_used == depth and got.context_count == hits
                  and np.allclose(got.token_probs, probs, atol=1e-12, rtol=0))
            checked += 1
            if not ok:
                failures.append(
                    f"corpus {corpus_id} ctx {ctx}: got depth "
                    f"{got.suffix_len_used}/count {got.context_count}, "
                    f"oracle {depth}/{hits}"
                )
                if len(failures) > 5:
                    break
        if len(failures) > 5:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    report(3, f"infinity-gram vs scan oracle on {checked} contexts",
           failures, elapsed)


def test_criterion_4_memorization_oracle():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(11)
    for trace_id in range(1000):
        n = int(rng.integers(3, 60))
        # quantize with probability 1/2 to force ties
        if rng.random() < 0.5:
            x = rng.integers(0, 6, size=n) / 6.0
            y = rng.integers(0, 6, size=n) / 6.0
        else:
            x = rng.uniform(size=n)
            y = rng.uniform(size=n)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        got = spearman_rho(ProbTrace(p_ref=x, p_model=y))
        want = spearman_naive(x, y)
        if abs(got - want) > 1e-12:
            failures.append(f"trace {trace_id}: {got} vs {want}")
            break
    # monotone transforms leave the rank vector exactly unchanged
    x = rng.uniform(0.1, 0.9, size=200)
    base = _average_ranks(x)
    for transform in (np.exp, lambda v: 3.0 * v + 0.1, np.sqrt):
        if not np.array_equal(base, _average_ranks(transform(x))):
            failures.append(f"rank vector changed under {transform}")
    elapsed = time.perf_counter() - t0
    report(4, "Spearman vs O(n^2) oracle on 1000 traces, rank invariance",
           failures, elapsed)


def test_criterion_5_phase_replication(default_trajectory):
    t0 = time.perf_counter()
    failures = []
    runtimes = []

    # skewed bottleneck run: single interior maximum plus faster late
    # growth of the leading singular value
    traj = default_trajectory
    summary = phase_summary(traj.rankme)
    if not summary.has_interior_maximum:
        failures.append(
            "default config: smoothed RankMe has no interior maximum "
            f"(peak at {summary.peak_index}/{len(traj)}, "
            f"compression depth {summary.compression_depth:.4f})"
        )
    late = traj.sigma_f[3 * len(traj) // 4:]
    growth = late[-1] - late[0]
    if not growth[0] > growth[1]:
        failures.append(f"late sigma growth {growth[0]:.4f} <= {growth[1]:.4f}")

    controls = {
        "uniform": ToyConfig(class_counts=(2, 2, 2, 2), record_every=10),
        "no-bottleneck": ToyConfig(d=4, record_every=10),
        "mse": ToyConfig(loss_kind="mse", record_every=10),
    }
    for name, cfg in controls.items():
        t_run = time.perf_counter()
        control = run_trajectory(cfg)
        runtimes.append(time.perf_counter() - t_run)
        s = phase_summary(control.rankme)
        if s.has_interior_maximum:
            failures.append(f"{name}: unexpected interior maximum")
        if s.post_warmup_drawdown > 0.01:
            failures.append(
                f"{name}: post-warmup drawdown {s.post_warmup_drawdown:.4f}"
            )
        smoothed = smooth_series(control.rankme, max(1, len(control) // 20))
        tail_rise = float(smoothed[-1] - smoothed[3 * len(smoothed) // 4])
        if tail_rise > 0.05:
            failures.append(f"{name}: still rising late ({tail_rise:.3f})")
    if runtimes and max(runtimes) >= 60.0:
        failures.append(f"control run took {max(runtimes):.1f}s >= 60s")
    elapsed = time.perf_counter() - t0
    report(5, "three-phase RankMe shape and controls", failures, elapsed)


def test_criterion_6_conservation_verification():
    t0 = time.perf_counter()
    failures = []

    state = init_balanced(ToyConfig())
    if state.balance_residual > 1e-12:
        failures.append(f"init residual {state.balance_residual:.2e}")

    drift_full = run_trajectory(ToyConfig(steps=2000, lr=1e-2))
    drift_half = run_trajectory(ToyConfig(steps=2000, lr=5e-3))
    r1 = check_conservation(drift_full)
    r2 = check_conservation(drift_half)
    if r1["residual_step0"] > 1e-12:
        failures.append(f"step-0 residual {r1['residual_step0']:.2e}")
    bound = 100 * 4 * r2["final_conservation_drift"]
    if r1["final_conservation_drift"] > bound:
        failures.append(
            f"drift {r1['final_conservation_drift']:.2e} exceeds 400x "
            f"half-step drift {r2['final_conservation_drift']:.2e}"
        )

    # Alignment: Euler integration itself misaligns the factors at
    # O(eta) per unit flow time, so the conserved frame is checked on a
    # fine-step trajectory (eta = 2e-6 over the transient where the
    # misalignment coefficient peaks, flow horizon 4).  The coarse-run
    # alignment error and its linear eta-scaling are reported by
    # check_conservation and covered in the unit suite.
    fine = run_trajectory(ToyConfig(steps=2_000_000, lr=2e-6, record_every=500))
    fine_report = check_conservation(fine)
    if fine_report["max_alignment_error"] > 1e-6:
        failures.append(
            f"alignment {fine_report['max_alignment_error']:.2e} > 1e-6"
        )
    # the vector-wise alignment metric is valid here: singular values
    # stay separated (no degenerate-sigma subspace grouping needed)
    gaps = (fine.sigma_f[:, 0] - fine.sigma_f[:, 1]) / fine.sigma_f[:, 0]
    if gaps.min() < 1e-3:
        failures.append(f"near-degenerate sigmas (relative gap {gaps.min():.2e})")

    elapsed = time.perf_counter() - t0
    report(6, "balance residual, Euler drift scaling, fine-step alignment",
           failures, elapsed)


def test_criterion_7_growth_law_verification(default_trajectory):
    t0 = time.perf_counter()
    failures = []
    result = check_growth_law(default_trajectory, sigma_floor_rel=1e-6)
    for side in ("f_side", "w_side"):
        if result[side]["max"] > 0.05:
            failures.append(f"{side} max rel err {result[side]['max']:.3f}")
    if result["rate_identity"]["max"] > 0.05:
        failures.append(
            f"rate identity max rel err {result['rate_identity']['max']:.3f}"
        )
    elapsed = time.perf_counter() - t0
    report(7, "singular-value growth law within 5%", failures, elapsed)


def test_criterion_8_passk_exactness():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 9):
        for c in range(n + 1):
            for k in range(1, n + 1):
                if pass_at_k_exact(n, c, k) != passk_enumerate(n, c, k):
                    failures.append(f"(N={n}, c={c}, k={k}) mismatch")
    prev = Fraction(-1)
    for c in range(0, 513, 32):
        val = pass_at_k_exact(512, c, 256)
        fval = float(val)
        if not (0.0 <= fval <= 1.0 and math.isfinite(fval)):
            failures.append(f"N=512 c={c}: value {fval}")
        if val < prev:
            failures.append(f"N=512: not monotone at c={c}")
        prev = val
    elapsed = time.perf_counter() - t0
    report(8, "pass@k equals exhaustive enumeration; N=512 stable",
           failures, elapsed)


def test_criterion_9_dpo_identity():
    t0 = time.perf_counter()
    failures = []
    gaps = list(np.linspace(-700, 700, 141)) + [-700.0, 700.0, 0.0]
    rng = np.random.default_rng(17)
    triples = [PreferenceTriple(float(g), 0.0) for g in gaps]
    triples += [
        PreferenceTriple(float(rng.uniform(-350, 350)),
                         float(rng.uniform(-350, 350)))
        for _ in range(500)
    ]
    worst = dpo_nce_identity(triples)
    if worst > 1e-10:
        failures.append(f"identity gap {worst:.2e}")
    elapsed = time.perf_counter() - t0
    report(9, "sigmoid and contrastive preference forms agree to 1e-10",
           failures, elapsed)


def test_criterion_10_ablation_properties():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(23)
    for trial in range(3):
        fm = center_features(FeatureMatrix(rng.normal(size=(100, 32))))
        spec = covariance_spectrum(fm, want_vectors=True)
        total = spec.values.sum()
        for k in (1, 5, 16, 32):
            kept = ablate_spectrum(fm, k, "retain_top")
            removed = ablate_spectrum(fm, k, "remove_top")
            # complementarity
            if np.linalg.norm(kept.data + removed.data - fm.data) > 1e-10:
                failures.append(f"trial {trial} k={k}: complementarity")
            # projection idempotence: retain_top by composition; the
            # complement projector by re-application (a second remove_top
            # call would recompute against the surviving energy, so the
            # complement side anchors to the original projector)
            again = ablate_spectrum(kept, k, "retain_top")
            if np.linalg.norm(again.data - kept.data) > 1e-10:
                failures.append(f"trial {trial} k={k}: retain idempotence")
            v_top = spec.vectors[:, :k]
            reproj = removed.data - (removed.data @ v_top) @ v_top.T
            if np.linalg.norm(reproj - removed.data) > 1e-10:
                failures.append(f"trial {trial} k={k}: remove idempotence")
            # retained energy matches the spectrum head
            kept_spec = covariance_spectrum(kept)
            expected = spec.values[:k].sum() / total
            got = kept_spec.values.sum() / total
            if abs(got - expected) > 1e-10:
                failures.append(f"trial {trial} k={k}: energy {got} vs {expected}")
    elapsed = time.perf_counter() - t0
    report(10, "ablation idempotence/complementarity/energy on 100x32",
           failures, elapsed)


def test_criterion_11_end_to_end_sweep(tmp_path):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(29)
    entries = []
    for i, alpha in enumerate(np.linspace(0.4, 2.0, 10)):
        fm = synthetic_power_law_matrix(rng, float(alpha), m=256, d=200)
        name = f"ckpt{i:02d}.mat"
        write_matrix(fm, tmp_path / name)
        entries.append({"label": f"step{i:02d}", "path": name})
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(
        json.dumps({"entries": entries, "options": {"center": True}}),
        encoding="utf-8",
    )
    reportobj = sweep(load_manifest(manifest_path))
    if not reportobj.ok:
        failures.append(f"sweep errors: {reportobj.errors}")
    ranks = [rec["rankme"] for rec in reportobj.records]
    alphas = [rec["alpha_req"] for rec in reportobj.records]
    if not all(b < a for a, b in zip(ranks, ranks[1:])):
        failures.append(f"rankme not strictly decreasing: {np.round(ranks, 3)}")
    if not all(b > a for a, b in zip(alphas, alphas[1:])):
        failures.append(f"alpha not strictly increasing: {np.round(alphas, 3)}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    report(11, "10-entry sweep: rankme falls, alpha rises", failures, elapsed)
