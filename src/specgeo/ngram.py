"""Suffix-array index over a token corpus and infinity-gram queries.

The index answers "how often does this token pattern occur" and "which
tokens follow it" for arbitrary patterns.  Next-token prediction uses
longest-suffix backoff: starting from the full context, shrink the
suffix until it both occurs in the corpus and is followed by at least
one token, then read the continuation distribution off the counts.  If
not even the last single token has a continuation, the corpus unigram
distribution is returned with a backoff depth of zero.

Occurrences never cross document boundaries: an n-gram spliced from the
end of one document and the start of the next is an artifact, not data.

Rank-correlation utilities for comparing the index's likelihoods with an
external language model's live here too (the two probability streams
arrive pre-aligned; producing them is the caller's problem).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TokenCorpus",
    "SuffixIndex",
    "NgramPrediction",
    "ProbTrace",
    "build_index",
    "pattern_count",
    "infty_gram_next",
    "joint_loglik",
    "spearman_rho",
    "distributional_memorization",
]

# Zero probabilities are floored at this value inside logs only; raw zeros
# stay visible in returned traces.
LOG_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TokenCorpus:
    """Flat token-id sequence with document end positions."""

    tokens: np.ndarray
    doc_boundaries: np.ndarray
    vocab_size: int

    def __post_init__(self):
        tokens = np.asarray(self.tokens, dtype=np.int64)
        if tokens.ndim != 1:
            raise ValueError("tokens must be 1-D")
        if tokens.size and tokens.min() < 0:
            raise ValueError("token ids must be nonnegative")
        if tokens.size and tokens.max() >= self.vocab_size:
            raise ValueError(
                f"token id {tokens.max()} >= vocab_size {self.vocab_size}"
            )
        bounds = np.asarray(self.doc_boundaries, dtype=np.int64)
        if bounds.ndim != 1:
            raise ValueError("doc_boundaries must be 1-D")
        if bounds.size:
            if np.any(np.diff(bounds) <= 0):
                raise ValueError("doc_boundaries must be strictly increasing")
            if bounds[0] <= 0 or bounds[-1] > tokens.size:
                raise ValueError("doc_boundaries out of range")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "doc_boundaries", bounds)

    def __len__(self) -> int:
        return int(self.tokens.size)


@dataclass(frozen=True)
class SuffixIndex:
    """Immutable suffix array over one corpus.

    ``sa`` is a permutation of 0..n-1 ordering suffixes of the raw token
    sequence lexicographically.  ``doc_end[p]`` is the end position of the
    document containing position p; a match of length L starting at p is
    valid only when p + L <= doc_end[p].
    """

    corpus: TokenCorpus
    sa: np.ndarray
    doc_end: np.ndarray

    def __post_init__(self):
        # plain-int copies: scalar indexing in the binary search hot path
        object.__setattr__(self, "_tokens_list", self.corpus.tokens.tolist())
        object.__setattr__(self, "_sa_list", self.sa.tolist())

    def __len__(self) -> int:
        return int(self.sa.size)


@dataclass(frozen=True)
class NgramPrediction:
    """Continuation distribution for one context."""

    token_probs: np.ndarray
    suffix_len_used: int
    context_count: int


@dataclass(frozen=True)
class ProbTrace:
    """Aligned per-token probability pairs (reference model, test model)."""

    p_ref: np.ndarray
    p_model: np.ndarray

    def __post_init__(self):
        ref = np.asarray(self.p_ref, dtype=np.float64)
        mod = np.asarray(self.p_model, dtype=np.float64)
        if ref.shape != mod.shape or ref.ndim != 1:
            raise ValueError("probability traces must be equal-length 1-D arrays")
        _check_probs("p_ref", ref)
        _check_probs("p_model", mod)
        object.__setattr__(self, "p_ref", ref)
        object.__setattr__(self, "p_model", mod)

    def __len__(self) -> int:
        return int(self.p_ref.size)


def _check_probs(name: str, arr: np.ndarray) -> None:
    # written so that NaN fails too: every comparison with NaN is false
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} has entries that are NaN or outside [0, 1]")


def _token_ids(seq: Sequence[int], name: str) -> np.ndarray:
    ids = np.asarray(seq, dtype=np.int64)
    if ids.size and ids.min() < 0:
        raise ValueError(f"{name} has negative token id {ids.min()}")
    return ids


def _suffix_array(tokens: np.ndarray) -> np.ndarray:
    """Prefix-doubling suffix array; deterministic for given input."""
    n = tokens.size
    rank = np.asarray(tokens, dtype=np.int64)
    sa = np.arange(n, dtype=np.int64)
    k = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        if k < n:
            second[:-k] = rank[k:]
        sa = np.lexsort((second, rank))
        paired = np.stack([rank[sa], second[sa]], axis=1)
        new_rank = np.zeros(n, dtype=np.int64)
        changed = np.any(paired[1:] != paired[:-1], axis=1)
        new_rank[sa[1:]] = np.cumsum(changed)
        rank = new_rank
        if rank[sa[-1]] == n - 1:
            return sa
        k *= 2


def build_index(corpus: TokenCorpus) -> SuffixIndex:
    """Build the suffix array plus per-position document-end lookup."""
    n = len(corpus)
    if n == 0:
        raise ValueError("cannot index an empty corpus")
    sa = _suffix_array(corpus.tokens)
    bounds = corpus.doc_boundaries
    if bounds.size == 0 or bounds[-1] < n:
        bounds = np.append(bounds, n)  # trailing tokens form a final document
    doc_end = np.empty(n, dtype=np.int64)
    start = 0
    for b in bounds:
        doc_end[start:b] = b
        start = int(b)
    return SuffixIndex(corpus=corpus, sa=sa, doc_end=doc_end)


def _sa_range(index: SuffixIndex, pattern: np.ndarray) -> tuple[int, int]:
    """Half-open SA range of suffixes starting with ``pattern``."""
    tokens = index._tokens_list
    sa = index._sa_list
    n = len(sa)
    pat = pattern.tolist()
    L = len(pat)

    def less_than(pos: int, strict_upper: bool) -> bool:
        # compare suffix at pos against pattern; upper bound treats equal
        # prefixes as still below the range end
        for j in range(L):
            if pos + j >= n:
                return True  # suffix is a proper prefix of pattern
            t, p = tokens[pos + j], pat[j]
            if t != p:
                return t < p
        return strict_upper

    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if less_than(sa[mid], False):
            lo = mid + 1
        else:
            hi = mid
    first = lo
    lo, hi = first, n
    while lo < hi:
        mid = (lo + hi) // 2
        if less_than(sa[mid], True):
            lo = mid + 1
        else:
            hi = mid
    return first, lo


def pattern_count(index: SuffixIndex, pattern: Sequence[int]) -> int:
    """Number of in-document occurrences of ``pattern`` (0 if unseen)."""
    pat = _token_ids(pattern, "pattern")
    if pat.size == 0:
        raise ValueError("pattern must be nonempty")
    lo, hi = _sa_range(index, pat)
    if lo == hi:
        return 0
    pos = index.sa[lo:hi]
    return int(np.count_nonzero(index.doc_end[pos] - pos >= pat.size))


def _continuations(index: SuffixIndex, pattern: np.ndarray) -> tuple[int, np.ndarray]:
    """(in-document occurrence count, continuation token tallies)."""
    lo, hi = _sa_range(index, pattern)
    vocab = index.corpus.vocab_size
    if lo == hi:
        return 0, np.zeros(vocab, dtype=np.int64)
    pos = index.sa[lo:hi]
    rem = index.doc_end[pos] - pos
    count = int(np.count_nonzero(rem >= pattern.size))
    follow = pos[rem >= pattern.size + 1] + pattern.size
    tally = np.bincount(index.corpus.tokens[follow], minlength=vocab)
    return count, tally


def infty_gram_next(index: SuffixIndex, context: Sequence[int]) -> NgramPrediction:
    """Next-token distribution from the longest context suffix with a
    continuation; falls back to the corpus unigram distribution."""
    ctx = _token_ids(context, "context")
    n = len(index.corpus)
    for length in range(min(ctx.size, n), 0, -1):
        suffix = ctx[ctx.size - length :]
        count, tally = _continuations(index, suffix)
        total = tally.sum()
        if count > 0 and total > 0:
            return NgramPrediction(
                token_probs=tally / total,
                suffix_len_used=length,
                context_count=count,
            )
    tally = np.bincount(index.corpus.tokens, minlength=index.corpus.vocab_size)
    return NgramPrediction(
        token_probs=tally / n, suffix_len_used=0, context_count=n
    )


def joint_loglik(
    index: SuffixIndex, prefix: Sequence[int], target: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Sum of log next-token probabilities of ``target`` given ``prefix``.

    Returns (loglik, per-token probabilities).  Zero probabilities stay raw
    in the returned trace but are floored at LOG_PROB_FLOOR inside the log.
    A target id at or above the vocabulary size has probability 0; a
    negative id in either sequence raises ValueError.
    """
    tgt = _token_ids(target, "target")
    if tgt.size == 0:
        raise ValueError("target must be nonempty")
    pre = _token_ids(prefix, "prefix")
    probs = np.empty(tgt.size)
    total = 0.0
    for i, tok in enumerate(tgt):
        ctx = np.concatenate([pre, tgt[:i]])
        pred = infty_gram_next(index, ctx)
        p = float(pred.token_probs[tok]) if tok < pred.token_probs.size else 0.0
        probs[i] = p
        total += float(np.log(max(p, LOG_PROB_FLOOR)))
    return total, probs


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the average of their positions."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rho(pairs: ProbTrace) -> float:
    """Spearman rank correlation with average ranks for ties, in [-1, 1]."""
    return _spearman(pairs.p_ref, pairs.p_model)


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 2:
        raise ValueError("need at least 2 pairs for a rank correlation")
    rx = _average_ranks(np.asarray(x, dtype=np.float64))
    ry = _average_ranks(np.asarray(y, dtype=np.float64))
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(np.sum(dx * dx))
    vy = float(np.sum(dy * dy))
    if vx == 0.0 or vy == 0.0:
        raise ValueError("rank correlation undefined for a constant side")
    rho = float(np.sum(dx * dy) / np.sqrt(vx * vy))
    return min(1.0, max(-1.0, rho))


def distributional_memorization(
    ref_probs: Sequence[float],
    model_probs: Sequence[float],
    example_ids: Sequence,
    per_token: bool = False,
) -> float:
    """Spearman correlation of per-example joint likelihoods.

    ``ref_probs`` and ``model_probs`` are aligned per-token probabilities;
    ``example_ids`` assigns every token to its example.  Each example's
    likelihood is the product of its token probabilities; the correlation
    runs over examples.  With ``per_token`` the correlation runs directly
    over token probabilities instead.  A NaN or a probability outside
    [0, 1] raises ValueError.

    Floors each token probability at LOG_PROB_FLOOR before taking the
    product (a zero anywhere would collapse the example to an uninformative
    exact zero); the floor is monotone so rankings are unaffected.
    """
    ref = np.asarray(ref_probs, dtype=np.float64)
    mod = np.asarray(model_probs, dtype=np.float64)
    ids = np.asarray(example_ids)
    if not (ref.shape == mod.shape == ids.shape) or ref.ndim != 1:
        raise ValueError("ref, model, and example ids must be aligned 1-D arrays")
    _check_probs("ref_probs", ref)
    _check_probs("model_probs", mod)
    if per_token:
        return _spearman(ref, mod)
    uniq = np.unique(ids)
    if uniq.size < 2:
        raise ValueError("need at least 2 examples to correlate")
    ref_ll = np.empty(uniq.size)
    mod_ll = np.empty(uniq.size)
    log_ref = np.log(np.maximum(ref, LOG_PROB_FLOOR))
    log_mod = np.log(np.maximum(mod, LOG_PROB_FLOOR))
    for k, eid in enumerate(uniq):
        mask = ids == eid
        ref_ll[k] = log_ref[mask].sum()
        mod_ll[k] = log_mod[mask].sum()
    return _spearman(ref_ll, mod_ll)
