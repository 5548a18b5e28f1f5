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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["ngram"])

# Zero probabilities are floored at this value inside logs only; raw zeros
# stay visible in returned traces.
LOG_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TokenCorpus:
    """Flat token-id sequence with document end positions.

    All three fields follow ``_whole_numbers``; ``vocab_size`` is a scalar,
    stored as an ``int``."""

    tokens: np.ndarray
    doc_boundaries: np.ndarray
    vocab_size: int

    def __post_init__(self):
        tokens = _token_ids(self.tokens, "tokens")
        if tokens.ndim != 1:
            raise ValueError("tokens must be 1-D")
        vocab = _whole_numbers(self.vocab_size, "vocab_size", "value")
        if vocab.ndim:
            raise ValueError(f"vocab_size must be a scalar, got shape {vocab.shape}")
        vocab = int(vocab)
        if tokens.size and tokens.max() >= vocab:
            raise ValueError(f"token id {tokens.max()} >= vocab_size {vocab}")
        bounds = _whole_numbers(self.doc_boundaries, "doc_boundaries", "boundary")
        if bounds.ndim != 1:
            raise ValueError("doc_boundaries must be 1-D")
        if bounds.size:
            if np.any(np.diff(bounds) <= 0):
                raise ValueError("doc_boundaries must be strictly increasing")
            if bounds[0] <= 0 or bounds[-1] > tokens.size:
                raise ValueError("doc_boundaries out of range")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "doc_boundaries", bounds)
        object.__setattr__(self, "vocab_size", vocab)

    def __len__(self) -> int:
        return int(self.tokens.size)


@dataclass(frozen=True)
class SuffixIndex:
    """Immutable suffix array over one corpus.

    ``sa`` is a permutation of 0..n-1 ordering suffixes of the raw token
    sequence lexicographically.  ``doc_end[p]`` is the end position of the
    document containing position p; a match of length L starting at p is
    valid only when p + L <= doc_end[p].  It is derived from the corpus's
    document boundaries, not passed in.

    Construction checks the suffix order in O(n), however the index was
    made, and raises ValueError when ``sa`` is not the corpus's suffix
    array: an index loaded from disk is trusted only after this check.
    """

    corpus: TokenCorpus
    sa: np.ndarray
    doc_end: np.ndarray = field(init=False)

    def __post_init__(self):
        tokens = self.corpus.tokens
        n = tokens.size
        if n == 0:
            raise ValueError("cannot index an empty corpus")
        sa = _whole_numbers(self.sa, "suffix array", "entry")
        if sa.shape != (n,):
            raise ValueError(f"suffix array must have shape ({n},), got {sa.shape}")
        if sa.min() < 0 or sa.max() >= n:
            raise ValueError("suffix array has entries outside 0..n-1")
        _check_suffix_order(tokens, sa)
        object.__setattr__(self, "sa", sa)
        object.__setattr__(self, "doc_end", _doc_ends(self.corpus))

    def __len__(self) -> int:
        return int(self.sa.size)


def _check_suffix_order(tokens: np.ndarray, sa: np.ndarray) -> None:
    """Raise ValueError unless ``sa`` (entries in 0..n-1) is the suffix
    array of ``tokens``; O(n)."""
    n = tokens.size
    # rank[p] = position of suffix p in sa; rank[n] = -1 ranks the empty
    # suffix first, so a proper prefix sorts before its extensions
    rank = np.full(n + 1, -1, dtype=np.int64)
    rank[sa] = np.arange(n)
    if np.any(rank[:n] < 0):
        raise ValueError("suffix array is not a permutation")
    # adjacent suffixes are ordered by first token, then by the order of
    # what follows it, which rank already states
    first, rest = tokens[sa], rank[sa + 1]
    ordered = (first[:-1] < first[1:]) | (
        (first[:-1] == first[1:]) & (rest[:-1] < rest[1:])
    )
    if not ordered.all():
        raise ValueError("suffix array is not in suffix order")


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
    """Raise ValueError naming the first entry of ``arr`` that is NaN or
    outside [0, 1]."""
    # written so that NaN fails too: every comparison with NaN is false
    ok = (arr >= 0.0) & (arr <= 1.0)
    if not ok.all():
        raise ValueError(f"{name} {float(arr[np.argmin(ok)])!r} is NaN or outside [0, 1]")


def _whole_numbers(seq: Sequence[int], name: str, noun: str) -> np.ndarray:
    """``seq`` as int64: integers, or real floats that are whole numbers
    below 2^63 in magnitude, which NaN and infinities are not."""
    values = np.asarray(seq)
    if values.dtype.kind not in "iuf":  # complex, bool, text, objects
        raise ValueError(f"{name} must hold integers or floats, got {values.dtype}")
    if values.dtype.kind == "f":
        whole = (values == np.round(values)) & (np.abs(values) < 2.0**63)
        if not whole.all():
            raise ValueError(f"{name} has {noun} {float(values[~whole][0])!r}, "
                             "not an integer in [0, 2^63)")
    return np.asarray(seq, dtype=np.int64)


def _token_ids(seq: Sequence[int], name: str) -> np.ndarray:
    """``seq`` as int64 token ids, whole numbers (see ``_whole_numbers``)
    that must all be nonnegative."""
    ids = _whole_numbers(seq, name, "token id")
    if ids.size and ids.min() < 0:
        raise ValueError(f"{name}: negative token id {ids.min()}")
    return ids


def _suffix_array(tokens: np.ndarray) -> np.ndarray:
    """Prefix-doubling suffix array; deterministic for given input.

    Each round sorts one packed int64 key, rank * (n+1) + next rank + 1,
    where the empty suffix past the end has next rank -1.  The new ranks
    depend only on the key values, and the last round's keys are all
    distinct, so the order a sort gives equal keys never reaches the
    result: an unstable sort returns the same array, faster.
    """
    n = tokens.size
    if n == 0:  # the empty array, which SuffixIndex rejects
        return np.arange(0)
    if (n + 1) ** 2 > np.iinfo(np.int64).max:
        raise ValueError(f"corpus of {n} tokens is too long to pack rank pairs")
    rank = np.unique(tokens, return_inverse=True)[1].reshape(-1).astype(np.int64)
    k = 1
    while True:
        key = rank * (n + 1)
        if k < n:
            key[: n - k] += rank[k:] + 1
        sa = np.argsort(key)
        sorted_key = key[sa]
        rank = np.empty(n, dtype=np.int64)
        rank[sa[0]] = 0
        rank[sa[1:]] = np.cumsum(sorted_key[1:] != sorted_key[:-1])
        if rank[sa[-1]] == n - 1:
            return sa
        k *= 2


def _doc_ends(corpus: TokenCorpus) -> np.ndarray:
    """End position of the document containing each token."""
    bounds = corpus.doc_boundaries
    if bounds.size == 0 or bounds[-1] < len(corpus):
        # trailing tokens form a final document
        bounds = np.append(bounds, len(corpus))
    return np.repeat(bounds, np.diff(bounds, prepend=0))


def build_index(corpus: TokenCorpus) -> SuffixIndex:
    """Build the suffix array of the corpus; SuffixIndex derives doc_end.
    A vocabulary too large for the tally that every query makes fails
    here, with MemoryError, before the suffix sort."""
    np.bincount(corpus.tokens, minlength=corpus.vocab_size)  # that tally
    return SuffixIndex(corpus=corpus, sa=_suffix_array(corpus.tokens))


def _sa_range(index: SuffixIndex, pattern: np.ndarray) -> tuple[int, int]:
    """Half-open SA range of the suffixes that start with ``pattern``; if
    none does, an empty range whose ``lo`` callers do not read.  Narrowed
    per token, an ended suffix first (as in ``_check_suffix_order``)."""
    # memoryviews index as plain ints, fast in the scalar loop, and copy nothing
    tokens, sa = memoryview(index.corpus.tokens), memoryview(index.sa)
    pat, n = pattern.tolist(), len(sa)
    lo, hi = 0, n
    for j, t in enumerate(pat):
        def key(pos: int, j: int = j) -> int:
            return tokens[pos + j] if pos + j < n else -1
        lo = bisect_left(sa, t, lo, hi, key=key)
        hi = bisect_right(sa, t, lo, hi, key=key)
        if lo == hi:
            break
        if hi - lo == 1:  # one candidate left: compare the rest of it at once
            rest = sa[lo] + j + 1
            if tokens[rest : rest + len(pat) - j - 1].tolist() != pat[j + 1 :]:
                hi = lo
            break
    return lo, hi


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


def _backoff(
    index: SuffixIndex, ctx: np.ndarray, upper: int
) -> tuple[int, int, np.ndarray]:
    """Longest suffix of ``ctx``, at most ``upper`` long, that occurs in a
    document and is followed there by at least one token.

    Returns (suffix length, in-document occurrence count, the tokens that
    follow its occurrences).  When no suffix qualifies: (0, n, every
    corpus token), the unigram fallback.
    """
    tokens = index.corpus.tokens
    for length in range(min(upper, ctx.size, tokens.size), 0, -1):
        lo, hi = _sa_range(index, ctx[ctx.size - length :])
        if lo == hi:
            continue
        pos = index.sa[lo:hi]
        rem = index.doc_end[pos] - pos
        follow = pos[rem > length] + length
        if follow.size:
            return length, int(np.count_nonzero(rem >= length)), tokens[follow]
    return 0, int(tokens.size), tokens


def infty_gram_next(index: SuffixIndex, context: Sequence[int]) -> NgramPrediction:
    """Next-token distribution from the longest context suffix with a
    continuation; falls back to the corpus unigram distribution."""
    ctx = _token_ids(context, "context")
    length, count, nexts = _backoff(index, ctx, ctx.size)
    tally = np.bincount(nexts, minlength=index.corpus.vocab_size)
    return NgramPrediction(
        token_probs=tally / nexts.size, suffix_len_used=length, context_count=count
    )


def joint_loglik(
    index: SuffixIndex, prefix: Sequence[int], target: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Sum of log next-token probabilities of ``target`` given ``prefix``.

    Returns (loglik, per-token probabilities).  Zero probabilities stay raw
    in the returned trace but are floored at LOG_PROB_FLOOR inside the log.
    A target id at or above the vocabulary size has probability 0; a
    negative id in either sequence raises ValueError.  Each probability
    equals ``infty_gram_next(index, prefix + target[:i])``'s entry.
    """
    tgt = _token_ids(target, "target")
    if tgt.size == 0:
        raise ValueError("target must be nonempty")
    pre = _token_ids(prefix, "prefix")
    full = np.concatenate([pre, tgt])
    probs = np.empty(tgt.size)
    total = 0.0
    upper = pre.size
    for i, tok in enumerate(tgt.tolist()):
        length, _, nexts = _backoff(index, full[: pre.size + i], upper)
        p = np.count_nonzero(nexts == tok) / nexts.size
        probs[i] = p
        total += float(np.log(max(p, LOG_PROB_FLOOR)))
        # a match of length L at the next step ends in one of length L-1
        # here, so the next match is at most one token longer than this one
        upper = length + 1
    return total, probs


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the average of their positions."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    new_run = np.concatenate([[True], sx[1:] != sx[:-1]])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], x.size) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = (0.5 * (starts + ends) + 1.0)[np.cumsum(new_run) - 1]
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
    trace = ProbTrace(ref_probs, model_probs)
    ref, mod = trace.p_ref, trace.p_model
    ids = np.asarray(example_ids)
    if ids.shape != ref.shape:
        raise ValueError("example ids must be aligned with the probability traces")
    if per_token:
        return _spearman(ref, mod)
    uniq, inv = np.unique(ids, return_inverse=True)
    if uniq.size < 2:
        raise ValueError("need at least 2 examples to correlate")
    inv = inv.reshape(-1)
    ref_ll = np.bincount(inv, weights=np.log(np.maximum(ref, LOG_PROB_FLOOR)))
    mod_ll = np.bincount(inv, weights=np.log(np.maximum(mod, LOG_PROB_FLOOR)))
    return _spearman(ref_ll, mod_ll)
