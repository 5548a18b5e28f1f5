"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with different algorithms than
the package: cyclic Jacobi rotations instead of LAPACK, brute-force
scanning instead of suffix arrays, O(n^2) rank counting instead of
argsort, exhaustive subset enumeration instead of product formulas, and
mpmath extended precision instead of float64.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np


# ------------------------------------------------------------ eigensolver

def jacobi_eigh(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 100):
    """Eigenvalues/vectors of a symmetric matrix by cyclic Jacobi rotations.

    Returns (values, vectors) with values descending.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.max(np.abs(a)), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += abs(a[p, q])
                if abs(a[p, q]) <= tol * scale:
                    continue
                phi = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(phi), math.sin(phi)
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
        if off <= tol * scale * n:
            break
    values = np.diag(a).copy()
    order = np.argsort(-values, kind="stable")
    return values[order], v[:, order]


# ------------------------------------------------------------ regression

def ols_slope_intercept(x: np.ndarray, y: np.ndarray):
    """Least squares by explicit normal equations."""
    n = len(x)
    sx = float(np.sum(x))
    sy = float(np.sum(y))
    sxx = float(np.sum(np.asarray(x) ** 2))
    sxy = float(np.sum(np.asarray(x) * np.asarray(y)))
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return slope, intercept


# ------------------------------------------------------------ ngram scans

def naive_doc_spans(n: int, boundaries) -> list[tuple[int, int]]:
    spans = []
    start = 0
    for b in list(boundaries):
        spans.append((start, int(b)))
        start = int(b)
    if start < n:
        spans.append((start, n))
    return spans


def naive_count(tokens, boundaries, pattern) -> int:
    """Occurrences of pattern inside single documents, by direct scan."""
    tokens = list(tokens)
    pattern = list(pattern)
    hits = 0
    for start, end in naive_doc_spans(len(tokens), boundaries):
        for p in range(start, end - len(pattern) + 1):
            if tokens[p : p + len(pattern)] == pattern:
                hits += 1
    return hits


def naive_continuations(tokens, boundaries, pattern, vocab: int):
    """(occurrence count, next-token tallies) by direct scan."""
    tokens = list(tokens)
    pattern = list(pattern)
    tally = [0] * vocab
    hits = 0
    for start, end in naive_doc_spans(len(tokens), boundaries):
        for p in range(start, end - len(pattern) + 1):
            if tokens[p : p + len(pattern)] == pattern:
                hits += 1
                if p + len(pattern) < end:
                    tally[tokens[p + len(pattern)]] += 1
    return hits, tally


def naive_infty_gram(tokens, boundaries, vocab, context):
    """Longest-suffix backoff prediction by scanning, mirroring the spec."""
    context = list(context)
    n = len(tokens)
    for length in range(min(len(context), n), 0, -1):
        suffix = context[len(context) - length :]
        hits, tally = naive_continuations(tokens, boundaries, suffix, vocab)
        total = sum(tally)
        if hits > 0 and total > 0:
            probs = [t / total for t in tally]
            return probs, length, hits
    tally = [0] * vocab
    for t in tokens:
        tally[t] += 1
    return [t / n for t in tally], 0, n


def fast_scan_infty_gram(tokens, doc_end, vocab, context):
    """Vectorized brute-force variant of ``naive_infty_gram``.

    Same scan semantics (no suffix structures): every window of the
    corpus is compared against the pattern directly.  ``doc_end`` maps
    each position to the end of its document.
    """
    tokens = np.asarray(tokens)
    doc_end = np.asarray(doc_end)
    n = tokens.size
    context = list(context)
    for length in range(min(len(context), n), 0, -1):
        pattern = np.asarray(context[len(context) - length:])
        windows = np.lib.stride_tricks.sliding_window_view(tokens, length)
        match = np.all(windows == pattern, axis=1)
        pos = np.nonzero(match)[0]
        if pos.size == 0:
            continue
        rem = doc_end[pos] - pos
        pos = pos[rem >= length]
        if pos.size == 0:
            continue
        follow = pos[doc_end[pos] - pos >= length + 1] + length
        if follow.size == 0:
            continue
        tally = np.bincount(tokens[follow], minlength=vocab)
        return tally / tally.sum(), length, int(pos.size)
    tally = np.bincount(tokens, minlength=vocab)
    return tally / n, 0, n


def doc_end_array(n, boundaries):
    ends = np.empty(n, dtype=np.int64)
    start = 0
    bounds = list(boundaries)
    if not bounds or bounds[-1] < n:
        bounds.append(n)
    for b in bounds:
        ends[start:b] = b
        start = int(b)
    return ends


# ------------------------------------------------------------ rank stats

def spearman_naive(x, y) -> float:
    """Rank correlation with O(n^2) average-rank computation."""
    def ranks(vals):
        out = []
        for i, vi in enumerate(vals):
            smaller = sum(1 for v in vals if v < vi)
            equal = sum(1 for v in vals if v == vi)
            out.append(smaller + (equal + 1) / 2.0)
        return out

    rx = ranks(list(x))
    ry = ranks(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


# ------------------------------------------------------------ pass@k

def passk_enumerate(n: int, c: int, k: int) -> Fraction:
    """Exact pass@k by enumerating every size-k subset of n samples."""
    labels = [True] * c + [False] * (n - c)
    hits = 0
    total = 0
    for combo in itertools.combinations(range(n), k):
        total += 1
        if any(labels[i] for i in combo):
            hits += 1
    return Fraction(hits, total)


# ------------------------------------------------------------ precision

def softmax_mp(row, dps: int = 50):
    """Softmax evaluated at ``dps`` decimal digits."""
    with mpmath.workdps(dps):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = sum(exps)
        return [float(e / total) for e in exps]


def rankme_mp(values, dps: int = 50) -> float:
    """exp(entropy) of a normalized spectrum at ``dps`` decimal digits."""
    with mpmath.workdps(dps):
        vals = [mpmath.mpf(float(v)) for v in values]
        total = sum(vals)
        ent = mpmath.mpf(0)
        for v in vals:
            if v > 0:
                p = v / total
                ent -= p * mpmath.log(p)
        return float(mpmath.exp(ent))


def softplus_mp(x: float, dps: int = 50) -> float:
    with mpmath.workdps(dps):
        return float(mpmath.log(1 + mpmath.exp(mpmath.mpf(x))))


def dpo_mean_mp(r_w, r_l, dps: int = 30) -> float:
    """Mean of log(1 + e^(r_l - r_w)) with every term and the sum held at
    ``dps`` digits, rounded to float once."""
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        total = mpmath.fsum(mpmath.log(1 + mpmath.exp(mpf(l) - mpf(w)))
                            for w, l in zip(r_w, r_l))
        return float(total / len(r_w))


# ------------------------------------------------------------ dynamics

def window_selection(sig: np.ndarray) -> tuple:
    """sigma_i's change over a window of records (the rows of ``sig``), and
    the Pearson correlation across directions of sigma_i at the window's
    first record with that change, by the textbook formula in plain
    Python; the correlation is None unless both take two values at least."""
    first = [float(v) for v in sig[0]]
    growth = [float(b) - a for a, b in zip(first, sig[-1])]
    if len(set(first)) < 2 or len(set(growth)) < 2:
        return growth, None
    n = len(first)
    mx, my = math.fsum(first) / n, math.fsum(growth) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(first, growth))
    sxx = math.fsum((x - mx) ** 2 for x in first)
    syy = math.fsum((y - my) ** 2 for y in growth)
    return growth, sxy / math.sqrt(sxx * syy)


def frequent_first_pairs(counts, crossings: dict) -> bool:
    """The primacy order rule, one pair of classes at a time: every class
    that outnumbers another crosses, and no later than it (None = never)."""
    return all(crossings[a] is not None
               and (crossings[b] is None or crossings[a] <= crossings[b])
               for a, b in itertools.permutations(range(len(counts)), 2)
               if counts[a] > counts[b])


def min_norm_margin_rankme(counts, d: int, starts: int = 20, seed: int = 0) -> float:
    """RankMe of the lowest KKT point found for the one-hot max-margin limit:
    minimise sum_c n_c |f_c|^2 + |W|^2 over class features f_c (rows of F)
    and the d x vocab readout W, with every logit margin
    f_c . (w_c - w_j) >= 1 for each class c of nonzero count and j != c.

    Each of ``starts`` seeded feasible starts (W's columns random unit
    vectors, f_c = w_c, scaled to margin 2) runs a log-barrier interior
    point method: damped Newton steps on the exact Hessian, shifted until
    it factors, with the barrier weight cut from 1 to below 1e-13.  The
    margins are bilinear, so their Hessians are constant.  RankMe is taken
    of the features' second moment sum_c n_c f_c f_c^T by Jacobi rotations.
    """
    counts = np.asarray(counts, dtype=np.float64)
    vocab = counts.size
    nf = vocab * d
    n = nf + d * vocab  # x = (F row-major, W row-major)
    pairs = [(c, j) for c in range(vocab) if counts[c] > 0
             for j in range(vocab) if j != c]
    hm = np.zeros((len(pairs), n, n))
    for p, (c, j) in enumerate(pairs):
        for k in range(d):
            for w, sign in ((nf + k * vocab + c, 1.0), (nf + k * vocab + j, -1.0)):
                hm[p, c * d + k, w] = hm[p, w, c * d + k] = sign
    scale = np.concatenate([np.repeat(2 * counts, d), np.full(d * vocab, 2.0)])

    def margins(x):
        return 0.5 * np.einsum("i,pij,j->p", x, hm, x)

    def barrier(x, mu):
        slack = margins(x) - 1.0
        if np.any(slack <= 0):
            return np.inf
        return 0.5 * scale @ (x * x) - mu * np.sum(np.log(slack))

    rng = np.random.default_rng(seed)
    best = (np.inf, None)
    for _ in range(starts):
        w = rng.normal(size=(d, vocab))
        w /= np.linalg.norm(w, axis=0)
        x = np.concatenate([w.T.ravel(), w.ravel()])
        x *= np.sqrt(2.0 / margins(x).min())
        mu = 1.0
        while mu > 1e-13:
            for _ in range(100):
                slack = margins(x) - 1.0
                jac = np.einsum("pij,j->pi", hm, x)
                grad = scale * x - mu * jac.T @ (1 / slack)
                hess = (np.diag(scale) + mu * (jac.T / slack**2) @ jac
                        - mu * np.einsum("pij,p->ij", hm, 1 / slack))
                shift = 0.0
                while np.any(np.linalg.eigvalsh(hess + shift * np.eye(n)) <= 0):
                    shift = max(2 * shift, 1e-8)
                step = -np.linalg.solve(hess + shift * np.eye(n), grad)
                decrement = -grad @ step
                if decrement < 1e-14:
                    break
                t, value = 1.0, barrier(x, mu)
                while barrier(x + t * step, mu) > value - 0.25 * t * decrement:
                    t *= 0.5
                x = x + t * step
            mu *= 0.2
        objective = 0.5 * scale @ (x * x)
        if objective < best[0]:
            best = (objective, x[:nf].reshape(vocab, d))
    f = best[1]
    values, _ = jacobi_eigh((counts[:, None] * f).T @ f)
    return rankme_mp(values)


def trajectory_reference(cfg) -> dict:
    """Every ``TrajectoryRecord`` column of ``run_trajectory(cfg)``, from
    repeated ``gd_step`` on theta, with one SVD of f and one of W per
    recorded step and each observable written out per row, per class and
    per singular pair."""
    from specgeo.dynamics import gd_step, init_balanced, softmax_alpha

    state = init_balanced(cfg)
    frozen = None
    if cfg.loss_kind == "xent_linearized":
        frozen = softmax_alpha(state.logits())
    cols = {}
    for t in range(cfg.steps + 1):
        if t % cfg.record_every == 0 or t == cfg.steps:
            record = _reference_record(state, cfg.loss_kind, frozen)
            for name, value in dict(steps=t, **record).items():
                cols.setdefault(name, []).append(value)
        if t < cfg.steps:
            state = gd_step(state, cfg)
    return {name: np.asarray(values) for name, values in cols.items()}


def _reference_record(state, loss_kind, frozen, gap_rtol=1e-6) -> dict:
    f = state.inputs @ state.theta
    w = state.w
    z = f @ w
    p = state.targets
    b, vocab = z.shape
    if loss_kind == "mse":
        a = z - p
        loss = 0.5 * math.fsum(float(x) ** 2 for x in a.ravel())
    elif loss_kind == "xent_linearized":
        a = frozen - p  # tangent plane at alpha_0: (alpha_0 - P) . z + H(alpha_0)
        loss = math.fsum(
            float(a[r, c] * z[r, c] - frozen[r, c] * math.log(frozen[r, c]))
            for r in range(b) for c in range(vocab)
        )
    else:
        a = np.empty_like(z)
        loss = 0.0
        for r in range(b):
            top = max(z[r])
            exps = [math.exp(v - top) for v in z[r]]
            total = math.fsum(exps)
            a[r] = [e / total - p[r, c] for c, e in enumerate(exps)]
            loss += top + math.log(total) - math.fsum(p[r] * z[r])

    u1, s1, v1t = np.linalg.svd(f, full_matrices=False)
    u2, s2, v2t = np.linalg.svd(w, full_matrices=False)
    r = min(s1.size, s2.size)

    lam = s1 ** 2
    shares = [v / math.fsum(lam) for v in lam if v > 0]
    rank = math.exp(-math.fsum(q * math.log(q) for q in shares)) if shares else math.nan

    # W's pair i signed so that u2_i . v1_i >= 0
    g = [(1.0 if v1t[i] @ u2[:, i] >= 0 else -1.0) * float(u1[:, i] @ a @ v2t[i])
         for i in range(r)]

    s = (s1[:r] + s2[:r]) / 2
    blocks = [[0]]
    for i in range(1, r):
        if s[i - 1] - s[i] < gap_rtol * max(s[0], 1e-300):
            blocks[-1].append(i)
        else:
            blocks.append([i])
    grouped = any(len(block) > 1 for block in blocks)
    sq = 0.0
    if not grouped:
        for i in range(r):
            for j in range(r):
                sq += (abs(float(v1t[i] @ u2[:, j])) - (i == j)) ** 2
    else:
        for block in blocks:
            v_b, u_b = v1t[block].T, u2[:, block]
            diff = v_b @ v_b.T - u_b @ u_b.T
            sq += (abs(float(v_b[:, 0] @ u_b[:, 0])) - 1.0) ** 2 if len(block) == 1 \
                else float(np.sum(diff * diff))

    margins = []
    for c in range(vocab):
        gaps = [z[row, c] - max(z[row, k] for k in range(vocab) if k != c)
                for row in range(b) if state.labels[row] == c]
        margins.append(math.fsum(gaps) / len(gaps) if gaps else math.nan)

    return {
        "loss": loss,
        "rankme": rank,
        "sigma_f": s1,
        "sigma_w": s2,
        "align_err": math.sqrt(sq),
        "align_grouped": grouped,
        "conserve_err": float(np.linalg.norm(f.T @ f - w @ w.T)),
        "a_norm": math.sqrt(math.fsum(float(x) ** 2 for x in a.ravel())),
        "g": np.asarray(g),
        "margins": np.asarray(margins),
    }


# ------------------------------------------------------------ matrix files

def read_features_bytes(path, center: bool):
    """(FeatureMatrix, file bytes) by the sweep's earlier route: the whole
    file read into bytes, the payload decoded into a float64 copy, then
    ``center_features`` or, with ``center`` false, the checked centred flag."""
    import struct

    from specgeo.io import BadDtypeError, BadMagicError, SizeMismatchError
    from specgeo.spectral import FeatureMatrix, center_features

    with open(path, "rb") as fh:
        raw = fh.read()
    header = struct.Struct("<8sBQQ")
    if len(raw) < header.size:
        raise SizeMismatchError(f"file is shorter than the {header.size}-byte header")
    magic, code, rows, cols = header.unpack_from(raw)
    if magic != b"SPECGEO1":
        raise BadMagicError(f"bad magic {magic!r}, expected {b'SPECGEO1'!r}")
    dtypes = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
    if code not in dtypes:
        raise BadDtypeError(f"unknown dtype code {code}")
    expected = rows * cols * dtypes[code].itemsize
    payload = raw[header.size:]
    if len(payload) != expected:
        raise SizeMismatchError(
            f"payload is {len(payload)} bytes, header implies {expected}")
    data = np.frombuffer(payload, dtype=dtypes[code]).reshape(rows, cols)
    fm = FeatureMatrix(data.astype(np.float64))
    if center:
        return center_features(fm), raw
    return FeatureMatrix(fm.data, centered=True), raw


# ------------------------------------------------------------ CLI text formats

def _converts(field: str, dtype) -> bool:
    try:
        np.array(field, dtype=dtype)
    except (ValueError, OverflowError):
        return False
    return True


def read_columns_csv(path, dtypes) -> tuple[list, list]:
    """The CLI's column reader as ``csv.reader`` plus a per-field numpy
    conversion: (columns, line of each data row), or ValueError.

    Blank rows are skipped; the first non-blank row is a header only if
    none of its numeric fields parses as a float.
    """
    import csv

    rows, lines = [], []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if "".join(row).strip():
                rows.append(row)
                lines.append(reader.line_num)
    if rows and not any(_converts(field, np.float64) for field, dtype
                        in zip(rows[0], dtypes) if dtype is not str):
        del rows[0], lines[0]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        return [np.array([row[i] for row in rows], dtype=dtype)
                for i, dtype in enumerate(dtypes)], lines
    except (IndexError, ValueError, OverflowError):
        line, row = next((line, row) for line, row in zip(lines, rows)
                         if len(row) < len(dtypes)
                         or not all(map(_converts, row, dtypes)))
        raise ValueError(f"{path}: line {line}: malformed row {row}") from None


def trajectory_csv_rows(traj) -> str:
    """``trajectory.csv`` written one record at a time."""
    kf, kw = traj.sigma_f.shape[1], traj.sigma_w.shape[1]
    header = (["step", "loss", "rankme"] + [f"sigma_f_{i+1}" for i in range(kf)]
              + [f"sigma_w_{i+1}" for i in range(kw)]
              + ["align_err", "conserve_err", "a_norm"])
    out = [",".join(header)]
    for i in range(len(traj)):
        row = ([str(int(traj.steps[i])), repr(float(traj.loss[i])),
                repr(float(traj.rankme[i]))]
               + [repr(float(v)) for v in traj.sigma_f[i]]
               + [repr(float(v)) for v in traj.sigma_w[i]]
               + [repr(float(traj.align_err[i])), repr(float(traj.conserve_err[i])),
                  repr(float(traj.a_norm[i]))])
        out.append(",".join(row))
    return "\n".join(out) + "\n"
