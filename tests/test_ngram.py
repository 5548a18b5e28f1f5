"""Suffix index, infinity-gram backoff, and rank-correlation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgeo.ngram import (
    ProbTrace,
    SuffixIndex,
    TokenCorpus,
    _average_ranks,
    _sa_range,
    _suffix_array,
    build_index,
    distributional_memorization,
    infty_gram_next,
    joint_loglik,
    pattern_count,
    spearman_rho,
)

from oracles import doc_end_array, naive_count, naive_infty_gram, spearman_naive


def make_corpus(tokens, boundaries=None, vocab=None):
    tokens = list(tokens)
    if vocab is None:
        vocab = max(tokens) + 1
    if boundaries is None:
        boundaries = [len(tokens)]
    return TokenCorpus(
        tokens=np.asarray(tokens), doc_boundaries=np.asarray(boundaries),
        vocab_size=vocab,
    )


def random_corpus(rng, max_len=500, max_vocab=8, multi_doc=True):
    n = int(rng.integers(5, max_len + 1))
    vocab = int(rng.integers(2, max_vocab + 1))
    tokens = rng.integers(0, vocab, size=n)
    if multi_doc and rng.random() < 0.5 and n > 4:
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 2),
                                  replace=False))
        boundaries = np.append(cuts, n)
    else:
        boundaries = np.array([n])
    return make_corpus(tokens.tolist(), boundaries.tolist(), vocab)


class TestBuildIndex:
    def test_small_corpus_permutation(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2]))
        assert sorted(idx.sa.tolist()) == [0, 1, 2, 3, 4]
        # verify suffix ordering by direct comparison
        toks = idx.corpus.tokens.tolist()
        suffixes = [toks[p:] for p in idx.sa]
        assert suffixes == sorted(suffixes)

    def test_single_token(self):
        idx = build_index(make_corpus([7], vocab=8))
        assert idx.sa.tolist() == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="cannot index an empty corpus"):
            build_index(make_corpus([], boundaries=[], vocab=1))

    def test_sorted_order_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            corpus = random_corpus(rng, max_len=120)
            idx = build_index(corpus)
            toks = corpus.tokens.tolist()
            n = len(toks)
            assert sorted(idx.sa.tolist()) == list(range(n))
            sample = rng.choice(n - 1, size=min(30, n - 1), replace=False)
            for i in sample:
                a, b = idx.sa[i], idx.sa[i + 1]
                assert toks[a:] <= toks[b:]

    def test_determinism(self):
        rng = np.random.default_rng(1)
        corpus = random_corpus(rng)
        a = build_index(corpus)
        b = build_index(corpus)
        np.testing.assert_array_equal(a.sa, b.sa)

    def test_vocabulary_no_query_can_tally_rejected(self, monkeypatch):
        """Each query tallies ``vocab_size`` tokens: a vocabulary too large
        for that tally fails the build, before the suffix sort."""
        import specgeo.ngram as ngram

        def no_sort(tokens):
            raise AssertionError("the suffix sort ran")

        monkeypatch.setattr(ngram, "_suffix_array", no_sort)
        with pytest.raises(MemoryError, match="Unable to allocate 7.11 PiB"):
            build_index(make_corpus([0, 1, 2, 1, 0, 1, 2], vocab=10**15))

    def test_large_vocabulary_builds_the_same_index(self):
        tokens = [0, 1, 2, 1, 0, 1, 2]
        idx = build_index(make_corpus(tokens, vocab=10**6))
        assert idx.sa.tolist() == sorted_suffixes(tokens)
        assert idx.corpus.vocab_size == 10**6
        assert infty_gram_next(idx, [1]).token_probs.size == 10**6


def sorted_suffixes(tokens):
    """Suffix array by sorting the suffixes themselves."""
    return sorted(range(len(tokens)), key=lambda p: tokens[p:])


class TestSuffixArray:
    def test_matches_sorted_suffixes(self):
        rng = np.random.default_rng(40)
        for n in range(1, 61):
            for vocab in range(1, 5):
                tokens = rng.integers(0, vocab, size=n)
                cuts = np.sort(rng.choice(np.arange(1, n + 1),
                                          size=int(rng.integers(1, min(n, 4) + 1)),
                                          replace=False))
                corpus = make_corpus(tokens.tolist(), cuts.tolist(), vocab)
                want = sorted_suffixes(tokens.tolist())
                assert _suffix_array(corpus.tokens).tolist() == want
                # document ends limit matches, not the order of suffixes
                assert build_index(corpus).sa.tolist() == want

    def test_sparse_token_ids(self):
        # ids far above the corpus length still give dense packed ranks; the
        # sort alone, as build_index refuses a vocabulary no query can tally
        tokens = [10**12, 3, 10**12, 3, 7]
        assert _suffix_array(np.array(tokens)).tolist() == sorted_suffixes(tokens)

    def test_overflowing_length_rejected(self):
        # a zero-stride view: the length is real, the memory is not
        huge = np.broadcast_to(np.int64(0), (3_100_000_000,))
        with pytest.raises(ValueError, match="too long"):
            _suffix_array(huge)


@st.composite
def corpus_and_patterns(draw):
    """A corpus over at most 3 token ids, whose suffixes share long prefixes
    and often leave one candidate, and patterns to look up in it: stretches
    of the corpus, its tails run on past its end, and random token lists
    (the id 3 occurs in no corpus)."""
    tokens = draw(st.lists(st.integers(0, draw(st.integers(0, 2))),
                           min_size=1, max_size=80))
    n = len(tokens)
    token = st.integers(0, 3)
    stretch = st.builds(lambda start, length: tokens[start : start + length],
                        st.integers(0, n - 1), st.integers(0, n))
    tail = st.builds(lambda start, more: tokens[start:] + more,
                     st.integers(0, n - 1), st.lists(token, min_size=1, max_size=3))
    patterns = st.lists(st.one_of(stretch, tail, st.lists(token, max_size=6)),
                        min_size=1, max_size=20)
    return tokens, draw(patterns)


class TestSaRange:
    @settings(max_examples=300, deadline=None)
    @given(corpus_and_patterns())
    def test_matches_sorted_suffixes(self, case):
        """A pattern that occurs gets the range of the sorted suffixes that
        start with it; one that does not gets an empty range."""
        tokens, patterns = case
        index = build_index(make_corpus(tokens))
        suffixes = [tokens[p:] for p in sorted_suffixes(tokens)]
        for pattern in patterns:
            hits = [i for i, suffix in enumerate(suffixes)
                    if suffix[: len(pattern)] == pattern]
            lo, hi = _sa_range(index, np.array(pattern, dtype=np.int64))
            if hits:
                assert (lo, hi) == (hits[0], hits[-1] + 1)
            else:
                assert 0 <= lo == hi <= len(tokens)


class TestSuffixIndexCheck:
    def setup_method(self):
        self.corpus = make_corpus([2, 0, 1, 0, 1, 2, 0], boundaries=[3, 7])
        self.good = build_index(self.corpus)

    def make(self, sa):
        return SuffixIndex(corpus=self.corpus, sa=sa)

    def test_accepts_true_suffix_array(self):
        idx = self.make(self.good.sa.astype(np.int32))
        assert idx.sa.dtype == np.int64
        np.testing.assert_array_equal(idx.sa, self.good.sa)

    def test_rejects_swapped_pair(self):
        for i in range(len(self.good) - 1):
            sa = self.good.sa.copy()
            sa[[i, i + 1]] = sa[[i + 1, i]]
            with pytest.raises(ValueError, match="suffix order"):
                self.make(sa)

    def test_rejects_duplicate(self):
        sa = self.good.sa.copy()
        sa[3] = sa[4]
        with pytest.raises(ValueError, match="permutation"):
            self.make(sa)

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_rejects_out_of_range(self, bad):
        sa = self.good.sa.copy()
        sa[2] = bad
        with pytest.raises(ValueError, match="outside"):
            self.make(sa)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="shape"):
            self.make(self.good.sa[:-1])
        with pytest.raises(ValueError, match="shape"):
            self.make(np.append(self.good.sa, 0))

    def test_float_entries_follow_the_rule(self):
        # the one whole-number rule of token ids and boundaries
        idx = self.make(self.good.sa.astype(np.float64))
        assert idx.sa.dtype == np.int64
        np.testing.assert_array_equal(idx.sa, self.good.sa)
        sa = self.good.sa.astype(np.float64)
        sa[2] = 1.5
        with pytest.raises(ValueError, match=r"^suffix array has entry 1\.5, "
                                             r"not an integer in \[0, 2\^63\)$"):
            self.make(sa)

    def test_doc_end_cannot_be_passed(self):
        with pytest.raises(TypeError, match="doc_end"):
            SuffixIndex(corpus=self.corpus, sa=self.good.sa,
                        doc_end=np.zeros(len(self.corpus), dtype=np.int64))

    def test_rejects_empty_corpus(self):
        corpus = make_corpus([], boundaries=[], vocab=1)
        with pytest.raises(ValueError, match="empty"):
            SuffixIndex(corpus=corpus, sa=np.zeros(0, dtype=np.int64))


class TestDocEnd:
    """SuffixIndex derives doc_end from the corpus's document boundaries."""

    def test_matches_oracle_on_random_corpora(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            tokens = rng.integers(0, 5, size=n)
            cuts = np.sort(rng.choice(np.arange(1, n + 1),
                                      size=int(rng.integers(0, min(n, 4) + 1)),
                                      replace=False))
            # boundaries that stop short of n leave trailing tokens,
            # which form a final document
            corpus = make_corpus(tokens.tolist(), cuts.tolist(), vocab=5)
            idx = build_index(corpus)
            assert idx.doc_end.dtype == np.int64
            np.testing.assert_array_equal(idx.doc_end,
                                          doc_end_array(n, cuts.tolist()))

    def test_trailing_tokens_after_last_boundary(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2, 0, 1], boundaries=[2, 4]))
        assert idx.doc_end.tolist() == [2, 2, 4, 4, 7, 7, 7]

    def test_counts_on_small_corpus(self):
        idx = SuffixIndex(corpus=make_corpus([0, 1, 0, 1, 2]),
                          sa=_suffix_array(np.array([0, 1, 0, 1, 2])))
        assert pattern_count(idx, [0, 1]) == 2
        pred = infty_gram_next(idx, [0])
        assert pred.suffix_len_used == 1
        np.testing.assert_array_equal(pred.token_probs, [0.0, 1.0, 0.0])


class TestPatternCount:
    def test_examples(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2]))
        assert pattern_count(idx, [0, 1]) == 2
        assert pattern_count(idx, [2, 2]) == 0
        assert pattern_count(idx, [0, 1, 0, 1, 2]) == 1

    def test_empty_pattern_rejected(self):
        idx = build_index(make_corpus([0, 1]))
        with pytest.raises(ValueError):
            pattern_count(idx, [])

    def test_does_not_cross_documents(self):
        # "0 1" only appears spliced across the boundary
        idx = build_index(make_corpus([2, 0, 1, 2], boundaries=[2, 4]))
        assert pattern_count(idx, [0, 1]) == 0
        assert pattern_count(idx, [2, 0]) == 1

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            corpus = random_corpus(rng, max_len=200)
            idx = build_index(corpus)
            toks = corpus.tokens.tolist()
            bounds = corpus.doc_boundaries.tolist()
            for _ in range(30):
                m = int(rng.integers(1, 5))
                if rng.random() < 0.7 and len(toks) > m:
                    p = int(rng.integers(0, len(toks) - m))
                    pattern = toks[p : p + m]
                else:
                    pattern = rng.integers(0, corpus.vocab_size, size=m).tolist()
                assert pattern_count(idx, pattern) == naive_count(
                    toks, bounds, pattern
                )

    def test_count_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            corpus = random_corpus(rng, max_len=150)
            idx = build_index(corpus)
            toks = corpus.tokens.tolist()
            for _ in range(20):
                m = int(rng.integers(1, 4))
                p = int(rng.integers(0, max(1, len(toks) - m)))
                pattern = toks[p : p + m]
                parent = pattern_count(idx, pattern)
                children = sum(
                    pattern_count(idx, pattern + [t])
                    for t in range(corpus.vocab_size)
                )
                assert children <= parent


class TestInftyGram:
    def test_spec_examples(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2]))
        pred = infty_gram_next(idx, [0, 1])
        np.testing.assert_allclose(pred.token_probs, [0.5, 0.0, 0.5])
        assert pred.suffix_len_used == 2
        pred = infty_gram_next(idx, [2, 0, 1])
        np.testing.assert_allclose(pred.token_probs, [0.5, 0.0, 0.5])
        assert pred.suffix_len_used == 2
        pred = infty_gram_next(idx, [])
        np.testing.assert_allclose(pred.token_probs, [0.4, 0.4, 0.2])
        assert pred.suffix_len_used == 0
        assert pred.context_count == 5

    def test_unigram_fallback_on_unseen(self):
        idx = build_index(make_corpus([0, 0, 1], vocab=4))
        pred = infty_gram_next(idx, [3, 3])
        assert pred.suffix_len_used == 0
        np.testing.assert_allclose(pred.token_probs, [2 / 3, 1 / 3, 0, 0])

    def test_no_continuation_backs_off(self):
        # "1" occurs only at a document end; context [1] must back off
        idx = build_index(make_corpus([0, 1, 0, 0], boundaries=[2, 4]))
        pred = infty_gram_next(idx, [1])
        assert pred.suffix_len_used == 0

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            corpus = random_corpus(rng, max_len=200)
            idx = build_index(corpus)
            toks = corpus.tokens.tolist()
            bounds = corpus.doc_boundaries.tolist()
            positions = rng.choice(len(toks), size=min(25, len(toks)),
                                   replace=False)
            for p in positions:
                ctx = toks[max(0, p - 6) : p]
                got = infty_gram_next(idx, ctx)
                probs, depth, hits = naive_infty_gram(
                    toks, bounds, corpus.vocab_size, ctx
                )
                assert got.suffix_len_used == depth
                assert got.context_count == hits
                np.testing.assert_allclose(got.token_probs, probs, atol=1e-12)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            corpus = random_corpus(rng, max_len=100)
            idx = build_index(corpus)
            toks = corpus.tokens.tolist()
            for p in range(0, len(toks), 7):
                pred = infty_gram_next(idx, toks[max(0, p - 4) : p])
                assert abs(pred.token_probs.sum() - 1.0) < 1e-12


class TestJointLoglik:
    def test_single_token(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2]))
        ll, probs = joint_loglik(idx, [0], [1])
        pred = infty_gram_next(idx, [0])
        assert probs.tolist() == [pred.token_probs[1]]
        assert ll == pytest.approx(np.log(pred.token_probs[1]))

    def test_composes_stepwise(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2, 0, 1]))
        prefix, target = [0], [1, 0, 1]
        ll, probs = joint_loglik(idx, prefix, target)
        expected = 0.0
        ctx = list(prefix)
        for t in target:
            pred = infty_gram_next(idx, ctx)
            expected += np.log(max(pred.token_probs[t], 1e-12))
            ctx.append(t)
        assert ll == pytest.approx(expected, abs=1e-12)

    def test_zero_prob_floored(self):
        idx = build_index(make_corpus([0, 0, 0], vocab=3))
        ll, probs = joint_loglik(idx, [], [2])
        assert probs.tolist() == [0.0]  # raw zero preserved
        assert ll == pytest.approx(np.log(1e-12))

    def test_empty_target_rejected(self):
        idx = build_index(make_corpus([0, 1]))
        with pytest.raises(ValueError):
            joint_loglik(idx, [0], [])

    def test_negative_target_id_rejected(self):
        # -1 must not wrap around to the last vocabulary entry
        idx = build_index(make_corpus([0, 1, 0, 1, 2]))
        with pytest.raises(ValueError, match="negative token id"):
            joint_loglik(idx, [0, 1], [-1])

    def test_negative_prefix_id_rejected(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2]))
        with pytest.raises(ValueError, match="negative token id"):
            joint_loglik(idx, [0, -2], [1])

    def test_out_of_vocab_target_has_zero_prob(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2]))
        ll, probs = joint_loglik(idx, [0, 1], [3])
        assert probs.tolist() == [0.0]
        assert ll == pytest.approx(np.log(1e-12))


class TestBackoffParity:
    """joint_loglik's amortised backoff against one infty_gram_next per step."""

    @staticmethod
    def stepwise(idx, prefix, target):
        probs, total = [], 0.0
        for i, tok in enumerate(target):
            pred = infty_gram_next(idx, list(prefix) + list(target[:i]))
            p = float(pred.token_probs[tok]) if tok < pred.token_probs.size else 0.0
            probs.append(p)
            total += float(np.log(max(p, 1e-12)))
        return total, np.asarray(probs)

    def test_random_corpora(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            corpus = random_corpus(rng, max_len=150, max_vocab=6)
            idx = build_index(corpus)
            toks = corpus.tokens.tolist()
            vocab = corpus.vocab_size
            for _ in range(6):
                start = int(rng.integers(0, len(toks)))
                prefix = toks[start : start + int(rng.integers(0, 8))]
                target = toks[start + len(prefix) : start + len(prefix) + 12]
                # out-of-vocab ids (vocab, vocab + 2) and a jump back to
                # the corpus start break the match mid-target
                extra = rng.choice([0, vocab - 1, vocab, vocab + 2],
                                   size=int(rng.integers(1, 6))).tolist()
                target = (target + extra + toks[:5])[:20]
                ll, probs = joint_loglik(idx, prefix, target)
                want_ll, want_probs = self.stepwise(idx, prefix, target)
                assert np.array_equal(probs, want_probs)
                assert ll == want_ll

    def test_unigram_fallback_and_regrowth(self):
        # token 3 never occurs, so the match collapses to the unigram
        # fallback and must grow back one token per step afterwards
        idx = build_index(make_corpus([0, 1, 2, 0, 1, 2, 0, 1], vocab=4))
        prefix, target = [0, 1, 2, 0], [1, 3, 0, 1, 2, 0, 1, 2, 5]
        ll, probs = joint_loglik(idx, prefix, target)
        want_ll, want_probs = self.stepwise(idx, prefix, target)
        assert np.array_equal(probs, want_probs)
        assert ll == want_ll
        assert infty_gram_next(idx, prefix + target[:2]).suffix_len_used == 0
        assert probs[-1] == 0.0  # out of vocab

    def test_document_end_fallback(self):
        # "1" only ends documents: no continuation, so the context falls
        # back to the unigram distribution although the token occurs
        idx = build_index(make_corpus([0, 1, 0, 0, 1], boundaries=[2, 5]))
        ll, probs = joint_loglik(idx, [0], [1, 0, 0, 1, 1])
        want_ll, want_probs = self.stepwise(idx, [0], [1, 0, 0, 1, 1])
        assert np.array_equal(probs, want_probs)
        assert ll == want_ll


class TestNegativeIds:
    def test_infty_gram_context(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2]))
        with pytest.raises(ValueError, match="negative token id"):
            infty_gram_next(idx, [0, -1])

    def test_pattern_count(self):
        idx = build_index(make_corpus([0, 1, 0, 1, 2]))
        with pytest.raises(ValueError, match="negative token id"):
            pattern_count(idx, [-1])


class TestTokenCorpus:
    @pytest.mark.parametrize("tokens, bounds, message", [
        ([[1, 2], [3, 1]], [4], "tokens must be 1-D"),
        ([1, 2, 3, 1], [[2, 4]], "doc_boundaries must be 1-D"),
        ([1, 2, 3, 1], [2, 2, 4], "strictly increasing"),
        ([1, 2, 3, 1], [3, 2], "strictly increasing"),
        ([], [0], "out of range"),
        ([1, 2], [3], "out of range"),
    ], ids=["2-D-tokens", "2-D-bounds", "repeated-bound", "decreasing-bounds",
            "empty-corpus-bound", "bound-past-end"])
    def test_rejects_bad_shapes_and_bounds(self, tokens, bounds, message):
        with pytest.raises(ValueError, match=message):
            TokenCorpus(tokens=np.array(tokens), doc_boundaries=np.array(bounds),
                        vocab_size=4)

    @pytest.mark.parametrize("vocab, message", [
        (2.5, r"vocab_size has value 2\.5, not an integer in \[0, 2\^63\)"),
        (np.float64(3.5), r"vocab_size has value 3\.5, not an integer"),
        (True, "vocab_size must hold integers or floats, got bool"),
        ("7", "vocab_size must hold integers or floats, got <U1"),
        (np.array([4, 4]), r"vocab_size must be a scalar, got shape \(2,\)"),
    ], ids=["2.5", "float64-3.5", "True", "text", "array"])
    def test_rejects_bad_vocab_size(self, vocab, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            TokenCorpus(tokens=[0, 0, 0], doc_boundaries=[3], vocab_size=vocab)

    @pytest.mark.parametrize("vocab", [4, 4.0, np.float64(4.0), np.int32(4),
                                       np.array(4), np.array(4.0)])
    def test_whole_vocab_size_is_an_int(self, vocab):
        corpus = TokenCorpus(tokens=[1, 2, 3], doc_boundaries=[3], vocab_size=vocab)
        assert type(corpus.vocab_size) is int and corpus.vocab_size == 4
        pred = infty_gram_next(build_index(corpus), [1])
        assert pred.token_probs.tolist() == [0.0, 0.0, 1.0, 0.0]


class TestTokenIdRule:
    """One rule for every token-id input: floats pass only as whole numbers
    below 2^63; nothing is truncated."""

    @pytest.mark.parametrize("bad", [1.9, np.nan, np.inf, -np.inf, 2.0**63, -1e20])
    def test_non_integral_floats_rejected(self, bad):
        idx = build_index(make_corpus([1, 2, 3, 1, 2]))
        tokens = np.array([1.0, 2.0, 3.0, 1.0, bad])
        with pytest.raises(ValueError, match=r"not an integer in \[0, 2\^63\)"):
            TokenCorpus(tokens=tokens, doc_boundaries=[5], vocab_size=4)
        for query in (lambda: pattern_count(idx, [bad, 2]),
                      lambda: infty_gram_next(idx, [1, bad]),
                      lambda: joint_loglik(idx, [bad], [2]),
                      lambda: joint_loglik(idx, [1], [2, bad])):
            with pytest.raises(ValueError, match="not an integer"):
                query()

    def test_whole_floats_equal_ints(self):
        ints = make_corpus([1, 2, 3, 1, 2, 0])
        floats = TokenCorpus(tokens=[1.0, 2.0, 3.0, 1.0, 2.0, 0.0],
                             doc_boundaries=[6], vocab_size=4)
        assert floats.tokens.dtype == np.int64
        assert floats.tokens.tolist() == ints.tokens.tolist()
        idx = build_index(ints)
        assert pattern_count(idx, [1.0, 2.0]) == pattern_count(idx, [1, 2]) == 2

    def test_float_boundaries_follow_the_rule(self):
        ints = make_corpus([1, 2, 3, 1, 2], boundaries=[2, 5])
        floats = TokenCorpus(tokens=[1, 2, 3, 1, 2], doc_boundaries=[2.0, 5.0],
                             vocab_size=4)
        assert floats.doc_boundaries.dtype == np.int64
        assert floats.doc_boundaries.tolist() == ints.doc_boundaries.tolist()
        with pytest.raises(ValueError, match=r"doc_boundaries has boundary 2\.7, "
                                             r"not an integer in \[0, 2\^63\)"):
            TokenCorpus(tokens=[1, 2, 3, 1, 2], doc_boundaries=[2.7, 5.0],
                        vocab_size=4)

    def test_negative_whole_float_is_a_negative_id(self):
        with pytest.raises(ValueError, match="negative token id -1"):
            TokenCorpus(tokens=[1.0, -1.0], doc_boundaries=[2], vocab_size=4)


class TestSpearman:
    def test_monotone(self):
        tr = ProbTrace(p_ref=np.array([0.1, 0.2, 0.3]),
                       p_model=np.array([0.3, 0.5, 0.9]))
        assert len(tr) == 3
        assert spearman_rho(tr) == 1.0

    def test_reversed(self):
        tr = ProbTrace(p_ref=np.array([0.1, 0.2, 0.3]),
                       p_model=np.array([0.9, 0.5, 0.3]))
        assert spearman_rho(tr) == -1.0

    def test_ties_match_naive(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            # quantized values force ties
            x = rng.integers(0, 5, size=n) / 5.0
            y = rng.integers(0, 5, size=n) / 5.0
            if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
                continue
            tr = ProbTrace(p_ref=x, p_model=y)
            assert spearman_rho(tr) == pytest.approx(
                spearman_naive(x, y), abs=1e-12
            )

    def test_constant_side_errors(self):
        tr = ProbTrace(p_ref=np.array([0.5, 0.5, 0.5]),
                       p_model=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            spearman_rho(tr)

    def test_too_short(self):
        tr = ProbTrace(p_ref=np.array([0.5]), p_model=np.array([0.1]))
        with pytest.raises(ValueError):
            spearman_rho(tr)

    @pytest.mark.parametrize("p_ref, p_model", [
        ([0.1, 0.2, 0.3], [0.1, 0.2]),
        ([[0.1, 0.2]], [[0.1, 0.2]]),
    ], ids=["lengths", "2-D"])
    def test_trace_rejects_shape_mismatch(self, p_ref, p_model):
        with pytest.raises(ValueError, match="equal-length 1-D"):
            ProbTrace(p_ref=np.array(p_ref), p_model=np.array(p_model))

    @pytest.mark.parametrize("bad", [np.nan, 1.7, -0.2])
    def test_trace_rejects_nan_and_out_of_range(self, bad):
        good = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="NaN or outside"):
            ProbTrace(p_ref=np.array([0.1, bad, 0.3]), p_model=good)
        with pytest.raises(ValueError, match="NaN or outside"):
            ProbTrace(p_ref=good, p_model=np.array([0.1, bad, 0.3]))

    @given(st.lists(st.integers(1, 97), min_size=3, max_size=20, unique=True),
           st.floats(0.1, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, grid, scale):
        # well-separated values so float rounding cannot merge ranks
        x = np.asarray(grid) / 100.0
        rng = np.random.default_rng(42)
        ys = (rng.permutation(len(x)) + 1.0) / (len(x) + 2.0)
        base = spearman_rho(ProbTrace(p_ref=x, p_model=ys))
        # strictly increasing transforms of either side keep every rank
        squeezed = spearman_rho(ProbTrace(p_ref=np.exp(x) / np.exp(1), p_model=ys))
        scaled = spearman_rho(ProbTrace(p_ref=x * scale, p_model=ys))
        assert squeezed == pytest.approx(base, abs=1e-12)
        assert scaled == pytest.approx(base, abs=1e-12)


def average_ranks_loop(x):
    """Tie-run average ranks, one run at a time."""
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


def memorization_masked(ref, model, ids):
    """Per-example log-likelihood sums by one mask per example."""
    uniq = np.unique(ids)
    log_ref = np.log(np.maximum(ref, 1e-12))
    log_mod = np.log(np.maximum(model, 1e-12))
    ref_ll = np.array([log_ref[ids == e].sum() for e in uniq])
    mod_ll = np.array([log_mod[ids == e].sum() for e in uniq])
    return spearman_naive(ref_ll, mod_ll)


class TestAverageRanks:
    def test_matches_loop_on_heavy_ties(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 17, 200):
            for levels in (1, 2, 3, 10):
                x = rng.integers(0, levels, size=n) / 4.0
                assert np.array_equal(_average_ranks(x), average_ranks_loop(x))

    def test_signed_zero_ties(self):
        x = np.array([0.0, -0.0, 0.5, 0.0])
        assert np.array_equal(_average_ranks(x), average_ranks_loop(x))


class TestMemorization:
    def test_matches_masked_grouping(self):
        # Sums of different tokens differ by far more than round-off, and
        # repeated examples tie exactly, so the two summation orders (one
        # pass over all tokens, one masked sum per example) rank alike.
        rng = np.random.default_rng(43)
        for _ in range(30):
            count = int(rng.integers(3, 40))
            lengths = rng.integers(1, 12, size=count)
            ref_ex = [rng.uniform(0.0, 1.0, size=k) for k in lengths]
            mod_ex = [rng.uniform(0.0, 1.0, size=k) for k in lengths]
            for a, b in rng.integers(0, count, size=(count // 3, 2)):
                if lengths[a] == lengths[b]:
                    ref_ex[b], mod_ex[b] = ref_ex[a], mod_ex[a].copy()
                    mod_ex[b][0] = 0.0  # floored zeros tie as well
                    mod_ex[a] = mod_ex[b]
            # non-contiguous labels; the examples' tokens interleave at
            # random, each example keeping its own token order
            labels = np.repeat(rng.choice(10_000, size=count, replace=False), lengths)
            slots = rng.permutation(labels.size)
            bounds = np.cumsum(lengths)[:-1]
            slots = np.concatenate([np.sort(c) for c in np.split(slots, bounds)])
            ids, ref, model = (np.empty(labels.size), np.empty(labels.size),
                               np.empty(labels.size))
            ids[slots], ref[slots] = labels, np.concatenate(ref_ex)
            model[slots] = np.concatenate(mod_ex)
            got = distributional_memorization(ref, model, ids)
            assert got == pytest.approx(memorization_masked(ref, model, ids),
                                        abs=1e-12)

    def test_string_ids(self):
        ids = np.array(["b", "a", "c", "a", "b", "c"])
        ref = np.array([0.5, 0.2, 0.9, 0.4, 0.3, 0.8])
        model = np.array([0.6, 0.1, 0.7, 0.5, 0.2, 0.9])
        got = distributional_memorization(ref, model, ids)
        assert got == pytest.approx(memorization_masked(ref, model, ids), abs=1e-12)

    def test_identical_probs(self):
        probs = np.array([0.5, 0.25, 0.125, 0.4, 0.6, 0.1])
        ids = np.array([0, 0, 0, 1, 1, 2])
        rho = distributional_memorization(probs, probs, ids)
        assert rho == 1.0

    def test_reversed_likelihoods(self):
        ref = np.array([0.9, 0.8, 0.5, 0.2])
        model = np.array([0.1, 0.2, 0.5, 0.9])
        ids = np.array([0, 1, 2, 3])
        rho = distributional_memorization(ref, model, ids)
        assert rho == -1.0

    def test_hand_built_examples(self):
        # five examples with two tokens each; joint likelihood = product
        rng = np.random.default_rng(7)
        ref = rng.uniform(0.05, 0.95, size=10)
        model = rng.uniform(0.05, 0.95, size=10)
        ids = np.repeat(np.arange(5), 2)
        rho = distributional_memorization(ref, model, ids)
        ref_joint = [ref[ids == k].prod() for k in range(5)]
        model_joint = [model[ids == k].prod() for k in range(5)]
        assert rho == pytest.approx(spearman_naive(ref_joint, model_joint),
                                    abs=1e-12)

    def test_per_token_mode(self):
        ref = np.array([0.1, 0.4, 0.2, 0.9])
        model = np.array([0.2, 0.5, 0.1, 0.8])
        ids = np.zeros(4)
        rho = distributional_memorization(ref, model, ids, per_token=True)
        assert rho == pytest.approx(spearman_naive(ref, model), abs=1e-12)

    def test_single_example_errors(self):
        with pytest.raises(ValueError):
            distributional_memorization([0.1, 0.2], [0.2, 0.3], [0, 0])

    def test_misaligned_errors(self):
        with pytest.raises(ValueError):
            distributional_memorization([0.1, 0.2], [0.2], [0, 1])
        with pytest.raises(ValueError, match="^example ids must be aligned with "
                                             "the probability traces$"):
            distributional_memorization([0.1, 0.2, 0.3], [0.2, 0.3, 0.4], [0, 1])

    @pytest.mark.parametrize("per_token", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, 1.7, -0.2])
    def test_rejects_nan_and_out_of_range(self, bad, per_token):
        good = [0.5, 0.25, 0.125, 0.4, 0.6]
        probs = [0.5, 0.25, bad, 0.4, 0.6]
        ids = [0, 0, 1, 1, 2]
        with pytest.raises(ValueError, match="NaN or outside"):
            distributional_memorization(probs, good, ids, per_token=per_token)
        with pytest.raises(ValueError, match="NaN or outside"):
            distributional_memorization(good, probs, ids, per_token=per_token)
