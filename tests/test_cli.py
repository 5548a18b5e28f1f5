"""End-to-end command-line interface tests."""

import contextlib
import csv
import importlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import specgeo
from specgeo import cli
from specgeo.cli import cli_dispatch
from specgeo.io import load_manifest, read_matrix, write_matrix
from specgeo.ngram import TokenCorpus, build_index
from specgeo.spectral import FeatureMatrix, covariance_spectrum, rankme

from oracles import doc_end_array, read_columns_csv, trajectory_csv_rows
from test_dynamics import DIVERGING
from test_io import _feed, synthetic_power_law_matrix


@pytest.fixture()
def matrix_file(tmp_path):
    rng = np.random.default_rng(0)
    fm = synthetic_power_law_matrix(rng, 1.0)
    path = tmp_path / "feat.mat"
    write_matrix(fm, path)
    return path


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, argv):
    code = cli_dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSpectralCommands:
    def test_rankme_json(self, matrix_file, capsys):
        code, doc = run_json(capsys, ["rankme", str(matrix_file), "--json"])
        assert code == 0
        assert 1.0 <= doc["rankme"] <= 24.0

    def test_spectrum(self, matrix_file, capsys):
        code, doc = run_json(capsys, ["spectrum", str(matrix_file), "--json"])
        assert code == 0
        assert len(doc["eigenvalues"]) == 24

    def test_spectrum_text_and_json(self, matrix_file, capsys):
        from specgeo.spectral import center_features, covariance_spectrum

        values = covariance_spectrum(center_features(read_matrix(matrix_file))).values
        assert cli_dispatch(["spectrum", str(matrix_file)]) == 0
        assert capsys.readouterr().out == "".join(f"{float(v)!r}\n" for v in values)
        assert cli_dispatch(["spectrum", str(matrix_file), "--json"]) == 0
        doc = {"eigenvalues": [float(v) for v in values], "m": 64, "d": 24}
        assert capsys.readouterr().out == json.dumps(doc, sort_keys=True) + "\n"

    def test_alphareq(self, matrix_file, capsys):
        code, doc = run_json(capsys, ["alphareq", str(matrix_file), "--json"])
        assert code == 0
        assert doc["alpha_req"] == pytest.approx(1.0, abs=1e-6)

    def test_window_is_checked_before_the_solve(self, matrix_file, capsys, monkeypatch):
        from specgeo import spectral

        def no_solve(*args, **kwargs):
            raise AssertionError("the spectrum was solved")

        monkeypatch.setattr(spectral, "covariance_spectrum", no_solve)
        assert cli_dispatch(["alphareq", str(matrix_file), "--window", "2", "25"]) == 1
        assert capsys.readouterr().err == (
            "specgeo: error: --window: window (2, 25) out of range for d=24\n")

    @pytest.mark.parametrize("argv, err", [
        (["alphareq", "{matrix}", "--window", "5", "2"],
         "--window: window (5, 2) out of range for any d"),
        (["alphareq", "{matrix}", "--window", "2", "3"],
         "--window: window (2, 3) holds 2 ranks; a power-law fit needs 3"),
        (["ablate", "{matrix}", "-k", "0", "-o", "{out}"], "-k: k must be in [1, d], got 0"),
    ], ids=["alphareq-window", "alphareq-narrow", "ablate-k"])
    @pytest.mark.parametrize("name", ["feat.mat", "missing.mat"])
    def test_rules_that_need_no_d_are_checked_before_the_read(
            self, matrix_file, tmp_path, capsys, monkeypatch, argv, err, name):
        from specgeo import io as sio

        reads = []
        monkeypatch.setattr(sio, "_read_features", lambda *args: reads.append(args))
        argv = [arg.format(matrix=tmp_path / name, out=tmp_path / "x.mat") for arg in argv]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err == f"specgeo: error: {err}\n"
        assert reads == []
        assert not (tmp_path / "x.mat").exists()

    def test_ablate_writes_output(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "ablated.mat"
        code = cli_dispatch(["ablate", str(matrix_file), "-k", "4",
                             "--mode", "remove_top", "-o", str(out)])
        assert code == 0
        ablated = read_matrix(out)
        assert ablated.data.shape == (64, 24)

    def test_sweep(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        entries = []
        for i, alpha in enumerate([0.5, 1.5]):
            name = f"c{i}.mat"
            write_matrix(synthetic_power_law_matrix(rng, alpha), tmp_path / name)
            entries.append({"label": f"s{i}", "path": name})
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        outdir = tmp_path / "out"
        code = cli_dispatch(["sweep", "--manifest", str(manifest),
                             "-o", str(outdir), "--json"])
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert len(report["records"]) == 2
        assert (outdir / "report.csv").exists()

    def test_sweep_resolves_entries_against_manifest_dir(self, tmp_path, capsys,
                                                         monkeypatch):
        # relative, absolute, garbage and directory entries of a manifest
        # in a subdirectory, run from its parent with a relative --manifest
        rng = np.random.default_rng(2)
        sub = tmp_path / "sub"
        (sub / "dir").mkdir(parents=True)
        write_matrix(synthetic_power_law_matrix(rng, 0.7), sub / "rel.mat")
        write_matrix(synthetic_power_law_matrix(rng, 1.3), tmp_path / "abs.mat")
        (sub / "bad.mat").write_bytes(b"garbage!" * 8)
        entries = [{"label": "rel", "path": "rel.mat"},
                   {"label": "abs", "path": str(tmp_path / "abs.mat")},
                   {"label": "bad", "path": "bad.mat"},
                   {"label": "dir", "path": "dir"}]
        (sub / "m.json").write_text(json.dumps({"entries": entries}),
                                    encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, doc = run_json(capsys, ["sweep", "--manifest", "sub/m.json",
                                      "-o", "out", "--json"])
        errors = [
            {"label": "bad",
             "error": "BadMagicError: bad magic b'garbage!', expected b'SPECGEO1'"},
            {"label": "dir",
             "error": "IsADirectoryError: [Errno 21] Is a directory: 'sub/dir'"},
        ]
        assert code == cli.COMPUTE_ERROR
        assert doc == {"records": 2, "errors": errors, "output": "out"}
        # the same bytes as a sweep of the same files by absolute path
        for e in entries:
            e["path"] = str(sub / e["path"])
        (tmp_path / "abs.json").write_text(json.dumps({"entries": entries}),
                                           encoding="utf-8")
        monkeypatch.chdir(sub)
        assert cli_dispatch(["sweep", "--manifest", str(tmp_path / "abs.json"),
                             "-o", str(tmp_path / "abs_out")]) == cli.COMPUTE_ERROR
        capsys.readouterr()
        for name in ("report.json", "report.csv"):
            got = (tmp_path / "out" / name).read_bytes()
            assert got == (tmp_path / "abs_out" / name).read_bytes().replace(
                str(sub / "dir").encode(), b"sub/dir")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["errors"] == errors
        assert [(r["label"], r["m"], r["d"]) for r in report["records"]] == [
            ("rel", 64, 24), ("abs", 64, 24)]

    def test_sweep_missing_entry_names_resolved_path(self, tmp_path, capsys,
                                                     monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "m.json").write_text(json.dumps(
            {"entries": [{"label": "gone", "path": "nope.mat"}]}), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli_dispatch(["sweep", "--manifest", "sub/m.json",
                             "-o", "out"]) == cli.COMPUTE_ERROR
        assert capsys.readouterr().err == (
            "specgeo: error: sub/m.json: manifest entry 'gone': missing sub/nope.mat\n")



class TestNgramCommands:
    def test_build_and_query(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("0 1 0 1 2\n", encoding="utf-8")
        index = tmp_path / "index.npz"
        assert cli_dispatch(["ngram-build", "--corpus", str(corpus),
                             "-o", str(index)]) == 0
        capsys.readouterr()
        code, doc = run_json(capsys, ["ngram-query", "--index", str(index),
                                      "--context", "0 1", "--json"])
        assert code == 0
        assert doc["probs"] == [0.5, 0.0, 0.5]
        assert doc["suffix_len_used"] == 2
        assert doc["context_count"] == 2

    def test_index_is_written_at_the_path_given(self, tmp_path, capsys):
        # no ".npz" is added, so the path reported is the path to query
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("0 1 0 1 2\n", encoding="utf-8")
        index = tmp_path / "idx"
        assert cli_dispatch(["ngram-build", "--corpus", str(corpus), "-o", str(index)]) == 0
        assert capsys.readouterr().out == f"indexed 5 tokens -> {index}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.txt", "idx"]
        code, doc = run_json(capsys, ["ngram-query", "--index", str(index),
                                      "--context", "0 1", "--json"])
        assert code == 0 and doc["probs"] == [0.5, 0.0, 0.5]

    @pytest.mark.parametrize("text", ["0 1.5 2\n", "0 x\n", "0 -1 2\n",
                                      "0 99999999999999999999\n", "\n  \n"],
                             ids=["float", "word", "negative", "overflow", "blank"])
    def test_bad_corpus_is_one_error_line(self, tmp_path, capsys, text):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text, encoding="utf-8")
        code = cli_dispatch(["ngram-build", "--corpus", str(corpus),
                             "-o", str(tmp_path / "index.npz")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("specgeo: error:") and err.count("\n") == 1
        assert not (tmp_path / "index.npz").exists()

    def test_build_from_matrix_corpus(self, tmp_path, capsys):
        # rows of a matrix file act as documents of token ids
        fm = FeatureMatrix(np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 2.0]]))
        path = tmp_path / "corpus.mat"
        write_matrix(fm, path)
        index = tmp_path / "idx.npz"
        assert cli_dispatch(["ngram-build", "--corpus", str(path),
                             "-o", str(index)]) == 0
        capsys.readouterr()
        code, doc = run_json(capsys, ["ngram-query", "--index", str(index),
                                      "--context", "0 1", "--json"])
        assert code == 0
        # "0 1" occurs once (doc 1), followed by 0
        assert doc["probs"] == [1.0, 0.0, 0.0]

    def test_one_row_matrix_corpus_equals_text(self, tmp_path, capsys):
        # a matrix corpus is token ids, not a feature matrix: one row is
        # one document, as one line of text is
        (tmp_path / "corpus.mat").write_bytes(_matrix_bytes([[0.0, 1.0, 0.0, 2.0]]))
        (tmp_path / "corpus.txt").write_text("0 1 0 2\n", encoding="utf-8")
        for name in ("corpus.mat", "corpus.txt"):
            assert cli_dispatch(["ngram-build", "--corpus", str(tmp_path / name),
                                 "-o", str(tmp_path / f"{name}.npz")]) == 0
        with np.load(tmp_path / "corpus.mat.npz") as got, \
                np.load(tmp_path / "corpus.txt.npz") as want:
            for key in ("tokens", "doc_boundaries", "vocab_size", "sa"):
                assert got[key].tolist() == want[key].tolist()
                assert got[key].dtype == want[key].dtype

    @pytest.fixture()
    def built_index(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(
            " ".join(map(str, rng.integers(0, 6, size=int(rng.integers(5, 60)))))
            for _ in range(8)) + "\n", encoding="utf-8")
        index = tmp_path / "index.npz"
        assert cli_dispatch(["ngram-build", "--corpus", str(corpus),
                             "-o", str(index)]) == 0
        capsys.readouterr()
        return index

    def test_query_from_stored_sa_equals_rebuilt(self, built_index, capsys,
                                                 monkeypatch):
        def query(context, *flags):
            assert cli_dispatch(["ngram-query", "--index", str(built_index),
                                 "--context", context, *flags]) == 0
            return capsys.readouterr().out

        contexts = ["", "0", "3 1", "1 2 3 4 5 0", "5 5 5 5 5 5 5 5", "9"]
        loaded = [query(c, *f) for c in contexts for f in ([], ["--json"])]

        def rebuild(path):
            with np.load(path) as doc:
                return build_index(TokenCorpus(
                    tokens=doc["tokens"], doc_boundaries=doc["doc_boundaries"],
                    vocab_size=int(doc["vocab_size"])))

        monkeypatch.setattr(cli, "_load_index", rebuild)
        assert loaded == [query(c, *f) for c in contexts for f in ([], ["--json"])]

    def test_query_text_and_json(self, built_index, capsys):
        from specgeo.ngram import infty_gram_next

        pred = infty_gram_next(cli._load_index(built_index), [3, 1])
        argv = ["ngram-query", "--index", str(built_index), "--context", "3 1"]
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr().out == (
            f"suffix_len={pred.suffix_len_used} count={pred.context_count} "
            f"probs={np.round(pred.token_probs, 6).tolist()}\n")
        assert cli_dispatch([*argv, "--json"]) == 0
        doc = {"probs": [float(p) for p in pred.token_probs],
               "suffix_len_used": pred.suffix_len_used,
               "context_count": pred.context_count}
        assert capsys.readouterr().out == json.dumps(doc, sort_keys=True) + "\n"

    def test_loaded_index_derives_doc_end(self, built_index, tmp_path):
        idx = cli._load_index(built_index)
        np.testing.assert_array_equal(
            idx.doc_end,
            doc_end_array(len(idx), idx.corpus.doc_boundaries.tolist()))
        # a stored corpus whose boundaries stop short of its end
        tokens = np.array([0, 1, 0, 1, 2, 0, 1])
        corpus = TokenCorpus(tokens=tokens, doc_boundaries=np.array([2, 4]),
                             vocab_size=3)
        path = tmp_path / "trailing.npz"
        np.savez(path, tokens=tokens, doc_boundaries=corpus.doc_boundaries,
                 vocab_size=np.int64(3), sa=build_index(corpus).sa)
        assert cli._load_index(path).doc_end.tolist() == [2, 2, 4, 4, 7, 7, 7]

    @pytest.mark.parametrize("key", ["tokens", "doc_boundaries", "vocab_size", "sa"])
    def test_index_missing_key_is_compute_error(self, built_index, tmp_path,
                                                capsys, key):
        with np.load(built_index) as doc:
            arrays = {k: doc[k] for k in doc.files if k != key}
        broken = tmp_path / "broken.npz"
        np.savez(broken, **arrays)
        code = cli_dispatch(["ngram-query", "--index", str(broken), "--context", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("specgeo: error:")
        assert repr(key) in err and str(broken) in err

    def test_truncated_index_is_compute_error(self, built_index, tmp_path, capsys):
        raw = built_index.read_bytes()
        broken = tmp_path / "truncated.npz"
        for cut in (10, len(raw) // 2, len(raw) - 10):
            broken.write_bytes(raw[:cut])
            code = cli_dispatch(["ngram-query", "--index", str(broken),
                                 "--context", "0"])
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1
            assert err.startswith(f"specgeo: error: {broken}: damaged index file")

    def test_tampered_sa_is_compute_error(self, built_index, tmp_path, capsys):
        with np.load(built_index) as doc:
            arrays = {k: doc[k] for k in doc.files}
        arrays["sa"][[10, 11]] = arrays["sa"][[11, 10]]
        broken = tmp_path / "tampered.npz"
        np.savez(broken, **arrays)
        code = cli_dispatch(["ngram-query", "--index", str(broken), "--context", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"specgeo: error: {broken}: suffix array is not in suffix order\n"

    def test_context_is_checked_before_the_index_is_read(self, tmp_path, capsys,
                                                         monkeypatch):
        # the flag before the file, as passk checks --k before its rows
        def no_load(path):
            raise AssertionError("the index was read")

        monkeypatch.setattr(cli, "_load_index", no_load)
        code = cli_dispatch(["ngram-query", "--index", str(tmp_path / "gone.npz"),
                             "--context", "2 x"])
        assert code == 1
        assert capsys.readouterr().err == (
            "specgeo: error: --context: token 'x' is not an integer id\n")

    def test_vocabulary_no_query_can_tally_refused_at_load(self, tmp_path, monkeypatch):
        """A stored vocabulary too large for the tally each query makes is
        refused by TokenCorpus, before the O(n) suffix check."""
        from specgeo import ngram

        def no_check(tokens, sa):
            raise AssertionError("the suffix check ran")

        monkeypatch.setattr(ngram, "_check_suffix_order", no_check)
        _contract_case("index:vocab-10^15", tmp_path)
        with pytest.raises(MemoryError) as caught:
            cli._load_index(tmp_path / "index.npz")
        assert str(caught.value) == f"{tmp_path / 'index.npz'}: {_NO_TALLY}"

    def test_whole_float_index_equals_int_index(self, built_index, tmp_path, capsys):
        # all four stored arrays follow one whole-number rule, so an index
        # stored as floats is the same index
        with np.load(built_index) as doc:
            floats = {key: doc[key].astype(np.float64) for key in doc.files}
        float_index = tmp_path / "floats.npz"
        np.savez(float_index, **floats)

        def query(index, context, *flags):
            assert cli_dispatch(["ngram-query", "--index", str(index),
                                 "--context", context, *flags]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            return out

        for context in ("", "0", "3 1", "1 2 3 4 5 0", "9"):
            for flags in ([], ["--json"]):
                assert (query(float_index, context, *flags)
                        == query(built_index, context, *flags))

    def test_memorize(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        model = tmp_path / "model.csv"
        lines = ["example_id,token_index,prob"]
        rng = np.random.default_rng(2)
        model_lines = ["example_id,token_index,prob"]
        for e in range(5):
            for t in range(3):
                p = rng.uniform(0.1, 0.9)
                lines.append(f"e{e},{t},{p}")
                model_lines.append(f"e{e},{t},{p}")  # identical traces
        ref.write_text("\n".join(lines), encoding="utf-8")
        model.write_text("\n".join(model_lines), encoding="utf-8")
        code, doc = run_json(capsys, ["memorize", "--ref", str(ref),
                                      "--model", str(model), "--json"])
        assert code == 0
        assert doc["memorization"] == 1.0

    def test_memorize_misaligned(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        model = tmp_path / "model.csv"
        ref.write_text("e0,0,0.5\ne1,0,0.25\n", encoding="utf-8")
        model.write_text("e0,0,0.5\ne2,0,0.25\n", encoding="utf-8")
        code = cli_dispatch(["memorize", "--ref", str(ref), "--model", str(model)])
        assert code == 1

    def test_memorize_first_row_without_header_is_data(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        model = tmp_path / "model.csv"
        ref.write_text("ex-1,3,0.9\nex-2,0,0.25\nex-3,1,0.75\n", encoding="utf-8")
        model.write_text("example_id,token_index,prob\n"
                         "ex-1,3,0.9\nex-2,0,0.75\nex-3,1,0.25\n", encoding="utf-8")
        code, doc = run_json(capsys, ["memorize", "--ref", str(ref),
                                      "--model", str(model), "--json"])
        assert code == 0
        # ex-1 ranks first on both sides: rho 0.5, against -1.0 without it
        assert doc["memorization"] == pytest.approx(0.5, abs=1e-15)

    def test_memorize_shuffled_padded_crlf_equals_sorted(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        rows = [f"e{e},{t},{rng.uniform(0.05, 0.95)!r}"
                for e in range(12) for t in range(5)]
        sorted_file = tmp_path / "sorted.csv"
        shuffled_file = tmp_path / "shuffled.csv"
        sorted_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
        # the same rows shuffled, with CRLF line ends and padded ids
        mixed = [f" {rows[i]}".replace(",", " ,", 1)
                 for i in rng.permutation(len(rows))]
        shuffled_file.write_bytes(("\r\n".join(mixed) + "\r\n").encode())
        model = tmp_path / "model.csv"
        model.write_text("\n".join(f"{r.rsplit(',', 1)[0]},{rng.uniform(0.05, 0.95)!r}"
                                   for r in rows) + "\n", encoding="utf-8")
        for flag in ([], ["--per-token"]):
            outs = []
            for ref in (sorted_file, shuffled_file):
                code = cli_dispatch(["memorize", "--ref", str(ref),
                                     "--model", str(model), *flag])
                assert code == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]

    def test_memorize_second_non_data_line_is_error(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text("example_id,token_index,prob\nnote,line,here\n"
                        "e0,0,0.5\ne1,0,0.25\n", encoding="utf-8")
        code = cli_dispatch(["memorize", "--ref", str(path), "--model", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("specgeo: error:") and err.count("\n") == 1
        assert "line 2" in err


class TestToyCommands:
    def test_toy_run(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(
            "d_in = 8\nd = 2\nvocab = 4\nclass_counts = 4,2,1,1\n"
            "lr = 0.01\nsteps = 300\nseed = 0\n",
            encoding="utf-8",
        )
        outdir = tmp_path / "run"
        code, doc = run_json(capsys, ["toy-run", "--config", str(cfg),
                                      "-o", str(outdir), "--json"])
        assert code == 0
        assert (outdir / "trajectory.csv").exists()
        assert (outdir / "summary.json").exists()
        csv_text = (outdir / "trajectory.csv").read_text()
        assert csv_text.count("\n") == 302  # header + 301 records
        assert doc["conservation"]["residual_step0"] <= 1e-12

    def test_trajectory_csv_matches_row_writer(self):
        from specgeo.dynamics import ToyConfig, run_trajectory

        for cfg in (ToyConfig(steps=300), ToyConfig(d=3, steps=200, record_every=7,
                                                     loss_kind="mse")):
            traj = run_trajectory(cfg)
            assert cli._trajectory_csv(traj) == trajectory_csv_rows(traj)

    def test_toy_verify(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("steps = 1500\n", encoding="utf-8")
        code, doc = run_json(capsys, ["toy-verify", "--config", str(cfg),
                                      "--json"])
        assert code == 0
        assert doc["growth_law"]["f_side"]["max"] <= 0.05
        assert doc["conservation"]["residual_step0"] <= 1e-12
        assert doc["primacy"]["margin_crossing_step"] is not None
        # no interior RankMe peak in 1500 steps: no compression window
        assert doc["primacy"]["window_start_step"] is None

    def test_toy_verify_without_a_correlation_writes_null(self, tmp_path, capsys):
        # at d = 1 no step has spread across directions: strict JSON, and null
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("d = 1\nsteps = 3000\n", encoding="utf-8")
        code = cli_dispatch(["toy-verify", "--config", str(cfg), "--json"])
        doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert code == 0
        assert doc["primacy"]["selection_correlation"] is None

    @pytest.mark.parametrize("line", ["d = 5", "d = 1000000000", "seed = -1"])
    def test_toy_verify_names_the_config(self, tmp_path, capsys, monkeypatch, line):
        """A config that cannot be balanced or seeded is refused by
        toy-verify as by toy-run: one line naming the file, and no step."""
        from specgeo import dynamics

        monkeypatch.setattr(dynamics, "_step", _no_step)
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        assert cli_dispatch(["toy-verify", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"specgeo: error: {cfg}: {_BAD_TOY_LINES[line]}")

    def _toy_run(self, tmp_path, capsys, text):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(text, encoding="utf-8")
        argv = ["toy-run", "--config", str(cfg), "-o", str(tmp_path / "run"),
                "--json"]
        code = cli_dispatch(argv)
        captured = capsys.readouterr()
        return code, (json.loads(captured.out) if code == 0 else captured.err)

    def test_label_odds_recorded(self, tmp_path, capsys):
        code, doc = self._toy_run(tmp_path, capsys,
                                  "steps = 20\nlabel_odds = 30\n")
        assert code == 0
        assert doc["config"]["label_odds"] == 30.0
        saved = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert saved["config"]["label_odds"] == 30.0

    def test_label_odds_defaults_to_stock_value(self, tmp_path, capsys):
        code, doc = self._toy_run(tmp_path, capsys, "steps = 20\n")
        assert code == 0
        assert doc["config"]["label_odds"] == 100.0

    def test_label_odds_inf_is_strict_json(self, tmp_path, capsys):
        code, doc = self._toy_run(tmp_path, capsys,
                                  "steps = 20\nlabel_odds = inf\n")
        assert code == 0
        assert doc["config"]["label_odds"] == "inf"
        text = (tmp_path / "run" / "summary.json").read_text()
        json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))

    def test_label_odds_rejects_nan_and_below_one(self, tmp_path, capsys):
        for bad in ("nan", "0.5", "-inf", "many"):
            code, err = self._toy_run(tmp_path, capsys,
                                      f"steps = 20\nlabel_odds = {bad}\n")
            assert code == 1, bad
            assert "specgeo: error:" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # a misspelt key must not fall back to the default silently
        code, err = self._toy_run(tmp_path, capsys,
                                  "steps = 20\nlabel_oods = inf\n")
        assert code == 1
        assert "label_oods" in err
        cfg = tmp_path / "toy.cfg"
        assert cli_dispatch(["toy-verify", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_no_config_is_the_defaults(self):
        from specgeo.dynamics import ToyConfig

        assert cli._toy_config(None) == ToyConfig()  # its 50,000 steps are not run

    def test_every_field_round_trips(self, tmp_path, capsys):
        from dataclasses import asdict, fields

        from specgeo.dynamics import ToyConfig, phase_summary, run_trajectory

        want = ToyConfig(d_in=12, d=3, vocab=5, class_counts=(3, 2, 2, 1, 1),
                         lr=0.02, steps=30, loss_kind="mse", seed=7,
                         record_every=2, label_odds=50.0)
        assert all(getattr(want, f.name) != f.default for f in fields(ToyConfig))
        code, doc = self._toy_run(tmp_path, capsys, (
            "d_in = 12\nd = 3\nvocab = 5\nclass_counts = 3 2 2 1 1\nlr = 0.02\n"
            "steps = 30\nloss_kind = mse\nseed = 7\nrecord_every = 2\nlabel_odds = 50\n"))
        assert cli._toy_config(tmp_path / "toy.cfg") == want
        assert code == 0
        assert doc["config"] == {**asdict(want), "class_counts": [3, 2, 2, 1, 1]}
        assert doc["phases"] == asdict(phase_summary(run_trajectory(want).rankme))
        saved = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert saved == doc

    @pytest.mark.parametrize("name", sorted(DIVERGING))
    def test_divergence_is_one_error_line(self, tmp_path, capsys, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would fail here
            code, err = self._toy_run(tmp_path, capsys, "".join(
                f"{key} = {value}\n" for key, value in DIVERGING[name].items()))
        assert code == 1
        assert err.startswith("specgeo: error:") and err.count("\n") == 1
        assert "record step" in err
        assert not (tmp_path / "run" / "trajectory.csv").exists()


# Values of each toy-config key, bounded so that no run is long: at most
# 50 steps and 16 dimensions.  Any key may also get a junk value.
_TOY_VALUES = {
    "d_in": st.integers(-1, 16), "d": st.integers(-1, 16), "vocab": st.integers(-1, 16),
    "class_counts": st.lists(st.integers(-1, 4), max_size=16).map(
        lambda counts: ",".join(map(str, counts))),
    "lr": st.sampled_from(["0.01", "0.3", "1e3", "0", "-1", "inf", "nan"]),
    "steps": st.integers(-1, 50), "seed": st.integers(-1, 2**40),
    "loss_kind": st.sampled_from(["xent_exact", "xent_linearized", "mse", "XENT"]),
    "record_every": st.integers(-1, 60),
    "label_odds": st.sampled_from(["1", "30", "inf", "0.5", "-1", "nan"]),
}
_JUNK = st.sampled_from(["", "nan", "-1", "inf", "1.5", "word", "1 2", "0x10", "1e2",
                         "4,,2", "=", "# only a comment"])


@st.composite
def _toy_config_lines(draw) -> list:
    """A config whose first line sets ``steps``, then lines that may set
    any key (also twice), an unknown key or a junk value, miss the "=",
    or hold only a comment."""
    lines = [f"steps = {draw(st.integers(1, 50))}"]
    for _ in range(draw(st.integers(0, 6))):
        key = draw(st.sampled_from([*_TOY_VALUES, "stpes", "d-in"]))
        value = draw(st.one_of(_TOY_VALUES.get(key, _JUNK), _JUNK))
        lines.append(draw(st.sampled_from([
            f"{key} = {value}", f"  {key}={value}  # note", f"{key} {value}",
            f"# {key} = {value}", ""])))
    return lines


class TestToyConfigContract:
    @settings(max_examples=200, deadline=None)
    @given(lines=_toy_config_lines())
    def test_exit_and_error_line(self, lines):
        """Exit 0 or 1, and stderr empty or one ``specgeo: error:`` line;
        when the reader rejects the file, that line is its error and names
        the config path.  A config the reader accepts may still diverge,
        which names no file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "toy.cfg"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                cli._toy_config(path)
                reader_error = None
            except ValueError as exc:
                reader_error = f"specgeo: error: {exc}\n"
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli_dispatch(["toy-run", "--config", str(path),
                                     "-o", str(Path(tmp) / "out")])
            err = err.getvalue()
            assert [str(w.message) for w in caught] == []
            assert code in (0, 1)
            if reader_error is not None:
                assert code == 1 and err == reader_error
                assert err.startswith(f"specgeo: error: {path}: ")
            elif code:
                assert err.startswith("specgeo: error: ") and err.count("\n") == 1
            else:
                assert err == ""


class TestEvalCommands:
    def test_passk(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text(
            "problem_id,N,c\np0,4,1\np1,4,4\np2,4,0\n", encoding="utf-8"
        )
        code, doc = run_json(capsys, ["passk", "--input", str(path),
                                      "--k", "1,2,4", "--json"])
        assert code == 0
        assert doc["2"] == pytest.approx(0.5, abs=1e-12)
        assert doc["4"] == pytest.approx(2 / 3, abs=1e-12)

    def test_passk_second_non_data_line_is_error(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text("problem_id,N,c\nnote,line,here\np0,4,1\n",
                        encoding="utf-8")
        code = cli_dispatch(["passk", "--input", str(path), "--k", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("specgeo: error:") and err.count("\n") == 1
        assert "line 2" in err

    def test_passk_reports_each_k_once(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text("problem_id,N,c\np0,16,4\np1,20,1\n", encoding="utf-8")
        argv = ["passk", "--input", str(path), "--k", "1,16,1"]
        assert cli_dispatch(argv) == 0
        text = capsys.readouterr().out
        code, doc = run_json(capsys, [*argv, "--json"])
        assert code == 0 and set(doc) == {"1", "16"}
        assert text == f"pass@1: {doc['1']!r}\npass@16: {doc['16']!r}\n"

    def test_k_is_checked_before_the_input(self, tmp_path, capsys):
        code = cli_dispatch(["passk", "--input", str(tmp_path / "missing.csv"),
                             "--k", "x"])
        assert code == 1
        assert capsys.readouterr().err == "specgeo: error: --k: 'x' is not an integer\n"

    def test_dpo_check(self, tmp_path, capsys):
        path = tmp_path / "rewards.csv"
        path.write_text("r_w,r_l\n1.0,1.0\n3.0,-3.0\n", encoding="utf-8")
        code, doc = run_json(capsys, ["dpo-check", "--input", str(path),
                                      "--json"])
        assert code == 0
        assert doc["max_identity_gap"] <= 1e-10

    def test_dpo_check_short_row_is_error(self, tmp_path, capsys):
        path = tmp_path / "rewards.csv"
        path.write_text("chosen,rejected\n1.0,0.5\n2.0\n", encoding="utf-8")
        code = cli_dispatch(["dpo-check", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("specgeo: error:") and err.count("\n") == 1
        assert "line 3" in err

    @pytest.mark.parametrize("argv, text", [
        (["dpo-check"], "1.0,nan\n2.0,1.0\n"),
        (["passk", "--k", "1"], "p0,4,x\np1,4,4\n"),
    ], ids=["dpo_nan", "passk_bad_count"])
    def test_bad_first_row_is_error_not_header(self, tmp_path, capsys, argv, text):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        code = cli_dispatch([*argv, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("specgeo: error:") and err.count("\n") == 1
        assert "line 1" in err

    @pytest.mark.parametrize("argv, header", [
        (["dpo-check", "--input", "{path}"], "r_w,r_l"),
        (["passk", "--k", "1", "--input", "{path}"], "problem_id,N,c"),
        (["memorize", "--ref", "{path}", "--model", "{path}"],
         "example_id,token_index,prob"),
    ], ids=["dpo", "passk", "memorize"])
    def test_header_only_file_is_error(self, tmp_path, capsys, argv, header):
        path = tmp_path / "in.csv"
        path.write_text(header + "\n\n", encoding="utf-8")
        code = cli_dispatch([arg.format(path=path) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"specgeo: error: {path}: no data rows\n"


class TestDpoCheckFiniteness:
    @pytest.mark.parametrize("row", [0, 3, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("column", [0, 1], ids=["r_w", "r_l"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_names_the_first_non_finite_line(self, tmp_path, capsys, row, column,
                                             value):
        rewards = [[f"{0.5 * i!r}", f"{-0.25 * i!r}"] for i in range(7)]
        rewards[row][column] = value
        if row < 6:  # a later bad row must not be the one reported
            rewards[6][1 - column] = "nan"
        # header on line 2 and a blank line 4, so rows and lines differ
        lines = ["", "r_w,r_l", *(",".join(r) for r in rewards[:1]), "  ",
                 *(",".join(r) for r in rewards[1:])]
        path = tmp_path / "rewards.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        line = lines.index(",".join(rewards[row])) + 1
        code = cli_dispatch(["dpo-check", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"specgeo: error: {path}: line {line}: rewards must be finite\n"

    def test_output_equals_library_forms(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        r_w, r_l = rng.normal(0.5, 3.0, 500), rng.normal(0.0, 3.0, 500)
        path = tmp_path / "rewards.csv"
        pairs = list(zip(r_w.tolist(), r_l.tolist()))
        path.write_text("".join(f"{w!r},{l!r}\n" for w, l in pairs), encoding="utf-8")
        code, doc = run_json(capsys, ["dpo-check", "--input", str(path), "--json"])
        triples = [specgeo.PreferenceTriple(w, l) for w, l in pairs]
        assert code == 0
        assert doc == {"dpo_loss": specgeo.dpo_loss(triples),
                       "max_identity_gap": specgeo.dpo_nce_identity(triples)}


# Per case: the rule that _by_row runs (its module in specgeo, its name and
# the index of its rows argument), the command, a 4,096-row file (header,
# data row i, and the bad rows by i) and the first bad row's error text.
_HALVED = {
    "dpo-nan": ("evalmetrics", "_dpo_loss_and_gap", 0, ["dpo-check", "--input"],
                ("r_w,r_l", lambda i: f"{i / 7!r},0.5", {3001: "1.0,nan", 3900: "nan,1.0"}),
                "rewards must be finite"),
    "trace-index": ("cli", "_convert", 0, ["memorize", "--model", "{path}", "--ref"],
                    ("example_id,token_index,prob", lambda i: f'"e{i}",0,0.5',
                     {1234: '"e1234",x,0.5', 2000: '"e2000",1.5,0.5'}),
                    "malformed row ['e1234', 'x', '0.5']"),
    "prob-above-one": ("ngram", "_check_probs", 1,
                       ["memorize", "--model", "{path}", "--ref"],
                       ("example_id,token_index,prob", lambda i: f"e{i},0,0.5",
                        {2500: "e2500,0,1.5", 2501: "e2501,0,2.0"}),
                       "prob 1.5 is NaN or outside [0, 1]"),
}


@pytest.mark.parametrize("case", list(_HALVED))
def test_bad_row_is_found_by_halving(tmp_path, capsys, monkeypatch, case):
    """The first bad row of n = 4,096 costs at most log2(n) + 2 calls of its
    rule, on fewer than 2n + 1 rows in all."""
    layer, name, arg, argv, (header, row, bad), text = _HALVED[case]
    module = importlib.import_module(f"specgeo.{layer}")
    path = tmp_path / "in.csv"
    rows = [bad.get(i, row(i)) for i in range(1, 4097)]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    line = min(bad) + 1  # below the header
    rule, sizes = getattr(module, name), []

    def counted(*args):
        sizes.append(len(args[arg]))
        return rule(*args)

    monkeypatch.setattr(module, name, counted)
    code = cli_dispatch([a.format(path=path) for a in argv] + [str(path)])
    assert (code, capsys.readouterr().err) == (
        1, f"specgeo: error: {path}: line {line}: {text}\n")
    assert len(sizes) <= 14 and sum(sizes) < 8193, (len(sizes), sum(sizes))


def test_rule_of_rows_together_names_the_path_only():
    """A rule that rejects two rows together but passes each alone breaks
    ``_by_row``'s contract: the row it ends on passes, so its error on the
    whole columns is raised again, naming the path and no line."""
    def together(col):
        if len(col) > 1:
            raise ValueError("rows clash")

    with pytest.raises(ValueError) as caught:
        cli._by_row("in.csv", [2, 3], together, np.array([1.0, 2.0]))
    assert str(caught.value) == "in.csv: rows clash"


TRACE = (str, np.int64, np.float64)
PASSK = (str, np.int64, np.int64)
DPO = (np.float64, np.float64)


def _read_both(tmp_path, data, dtypes):
    """The CLI reader's and the oracle's result on one file: (columns,
    lines) or the ValueError message."""
    path = tmp_path / "in.csv"
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    results = []
    for read in (cli._read_columns, read_columns_csv):
        try:
            results.append(read(path, dtypes))
        except ValueError as exc:
            results.append(str(exc))
    return results


def _assert_same(new, ref):
    if isinstance(ref, str) or isinstance(new, str):
        assert new == ref
        return
    (new_cols, new_lines), (ref_cols, ref_lines) = new, ref
    assert list(new_lines) == list(ref_lines)
    assert len(new_cols) == len(ref_cols)
    for a, b in zip(new_cols, ref_cols):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)  # NaNs compare equal here


class TestColumnReader:
    """The column reader against the per-field csv reader it replaced."""

    @pytest.mark.parametrize("dtypes, data", [
        (DPO, "r_w,r_l\r\n1.0,2.0\r\n  \r\n3.0,4.0\r\n"),
        (DPO, "r_w,r_l\r\n1.0,2.0\r\n \t\r\n\r\n"),
        (DPO, "1.0,2.0\n,\n3.0,4.0\n,,,\n"),
        (DPO, "\n\n  \nr_w,r_l\n1.5,2.5\n\n,\n\n"),
        (DPO, "1.0,2.0\r3.0,4.0\r"),
        (DPO, "1.0 , 2.0\t,extra\n-inf,nan\n1e400,-0\n"),
        (DPO, "r_w,r_l\n"),
        (DPO, "r_w,r_l\n\n , \n"),
        (DPO, ""),
        (DPO, "1.0\n2.0,3.0\n"),
        (DPO, "r_w,r_l\n1.0,2.0\n3.0\n"),
        (DPO, "r_w,1.0\n2.0,3.0\n"),
        (DPO, "1.0,nan\n2.0,1.0\n"),
        (DPO, "1.0,2.0\n3.0,x\n"),
        (DPO, "1.0,2.0\n1_0,2.0\n"),
        (DPO, "1.0,2.0\n1.0\x1c,2.0\n"),
        (DPO, '"r_w","r_l"\n"1.0","2.0"\n3.0,"4.0"\n'),
        (DPO, '1.0,2.0\n"",""\n3.0,4.0\n'),
        (DPO, '1.0,2.0\n","\n'),
        (DPO, '1.0,2.0\n 1.0,"2.0\n\n"\n'),
        (PASSK, "problem_id,N,c\np0,4,1\np1,4,4\n"),
        (PASSK, "p0,4,1.0\n"),
        (PASSK, "problem_id,N,c\np0,9223372036854775808,1\n"),
        (PASSK, "p0,9223372036854775807,-9223372036854775808\n"),
        (PASSK, "p0,4,-9223372036854775809\n"),
        (PASSK, "p0,1_0,4\n"),
        (PASSK, "p0,\u0664,1\n"),
        (PASSK, "p0,4,x\np1,4,4\n"),
        (PASSK, "problem_id\np0,4,2\n"),
        (PASSK, "problem_id,N,c\np0,4\n"),
        (PASSK, "problem_id,N,c\np0, 4 ,\t2\n"),
        (TRACE, "example_id,token_index,prob\n e1 ,0,0.5\ne0,1,0.25\n"),
        (TRACE, '"ex,1",0,0.5\n"ex""2",1,0.25\nex"3,2,0.125\n'),
        (TRACE, '"line\none",0,0.5\n"blank\n\n  \nlines",1,0.25\n'),
        (TRACE, "\u00e9t\u00e9,0,0.5\n\u4e2d,1,0.25\n"),
        (TRACE, "e0,0,0.5\n\u00e9,1\u01fe,0.25\n"),
        (TRACE, "example_id,token_index,prob\n\n"),
        (TRACE, b"e0\x00,0,0.5\ne1,1,0.25\n"),
        (TRACE, "e0,0,0.5\n\n , ,\ne1,1,0.25\n\n"),
        (DPO, "r_w,r_l\n1.0,2.0\n\n\n3.0,4.0\n\n"),
        (DPO, "1.0,2.0\r\r3.0,4.0\r\r"),
        (DPO, "1.0,2.0\r\n\r\n3.0,4.0\r\n"),
        (DPO, "\nr_w,r_l\n1.0,2.0\n"),
        (DPO, "r_w,r_l\n\n\n"),
        (DPO, "r_w,r_l"),
        (DPO, "r_w,r_l\n1.0,2.0\n \t\n3.0,4.0\n"),
        (DPO, "r_w,r_l\n1.0,2.0\n,\n3.0,4.0\n"),
        (DPO, "1.0,2.0\n\n , \n3.0\n"),
    ])
    def test_edge_cases_match_csv_reader(self, tmp_path, dtypes, data):
        _assert_same(*_read_both(tmp_path, data, dtypes))

    @pytest.mark.parametrize("data, plain", [
        ("r_w,r_l\n1.0,2.0\n3.0,4.0\n", True),
        ("r_w,r_l\n1.0,2.0\n\n\r\n3.0,4.0\n\n", True),
        ("\n1.0,2.0\n \n3.0,4.0\n,\n5.0,6.0\n , \n", True),
        ("1.0,2.0\n,\n3.0,4.0\n", True),
        ('"r_w",r_l\n1.0,2.0\n', False),
        ("1.0,2.0\n3.0\n", False),
        ("1.0,2.0\n\n \n3.0,x\n", False),
        ("1.0,2.0\n1_0,2.0\n", False),  # numpy refuses 1_0; csv reads it as 10
    ], ids=["no-blank-line", "empty-lines", "blank-lines", "comma-line", "quoted",
            "short-row", "bad-row-and-blank-lines", "underscore"])
    def test_only_text_numpy_rejects_reaches_csv(self, tmp_path, monkeypatch, data, plain):
        class CsvReader(Exception):
            pass

        def reader(*args, **kwargs):
            raise CsvReader

        expected = _read_both(tmp_path, data, DPO)[1]  # the oracle's result on in.csv
        path = tmp_path / "in.csv"
        monkeypatch.setattr(cli.csv, "reader", reader)
        if plain:
            _assert_same(cli._read_columns(path, DPO), expected)
        else:
            with pytest.raises(CsvReader):
                cli._read_columns(path, DPO)

    def test_benchmark_inputs_stay_on_the_numpy_route(self, tmp_path, monkeypatch):
        # the score workload's four CSV files at their smoke size: each is
        # read whole by np.loadtxt, never split by csv
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        workloads = importlib.import_module("workloads")
        workloads.make_score(np.random.default_rng(21), tmp_path,
                             workloads.SMOKE["score"])

        def reader(*args, **kwargs):
            raise AssertionError("csv.reader was called")

        monkeypatch.setattr(cli.csv, "reader", reader)
        for name, dtypes in (("ref.csv", TRACE), ("model.csv", TRACE),
                             ("passk.csv", PASSK), ("dpo.csv", DPO)):
            columns, lines = cli._read_columns(tmp_path / name, dtypes)
            assert len(lines) == len(columns[0]) > 0

    @pytest.mark.parametrize("data", ["r_w,r_l\n", "r_w,r_l\n\n\r\n\n"],
                             ids=["header-only", "header-and-empty-lines"])
    def test_a_file_without_data_rows_warns_of_nothing(self, tmp_path, data):
        path = tmp_path / "in.csv"
        path.write_text(data, encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(specgeo.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-W", "always", "-m", "specgeo.cli",
                               "dpo-check", "--input", str(path)], env=env,
                              capture_output=True, text=True, timeout=15)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"specgeo: error: {path}: no data rows\n"

    # each example rewrites the one file, so sharing tmp_path is safe
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_well_formed_files_match_csv_reader(self, tmp_path, data):
        dtypes = data.draw(st.sampled_from([TRACE, PASSK, DPO]))
        ids = st.one_of(  # plain ASCII ids, or any text csv may have to quote
            st.text("abcxyz019 -_.", max_size=6),
            st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\x00"), max_size=6))
        ints = st.integers(-2**63, 2**63 - 1).map(str)
        floats = st.floats(allow_nan=True, allow_infinity=True).map(repr)
        field = {str: ids, np.int64: ints, np.float64: floats}
        pad = st.sampled_from(["", " ", "\t"])
        rows = data.draw(st.lists(st.tuples(*(field[d] for d in dtypes)), max_size=12))
        blank = st.sampled_from(["", "  ", ",", " , ,", "\t"])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator=data.draw(st.sampled_from(["\n", "\r\n"])))
        if data.draw(st.booleans()):
            writer.writerow(["c" + str(i) for i in range(len(dtypes))])
        for row in rows:
            for _ in range(data.draw(st.integers(0, 1))):
                buf.write(data.draw(blank) + "\n")
            writer.writerow([f if d is str else data.draw(pad) + f + data.draw(pad)
                             for f, d in zip(row, dtypes)])
        _assert_same(*_read_both(tmp_path, buf.getvalue(), dtypes))


class TestModuleLoading:
    @pytest.mark.parametrize("argv, loaded", [
        (["passk", "--input", "{dir}/runs.csv", "--k", "1"], {"evalmetrics"}),
        (["dpo-check", "--input", "{dir}/rewards.csv"], {"evalmetrics"}),
        (["ngram-query", "--index", "{dir}/index.npz", "--context", "1"], {"ngram"}),
        (["rankme", "{matrix}"], {"io", "spectral"}),
        (["ngram-build", "--corpus", "{dir}/corpus.txt", "-o", "{dir}/built.npz"],
         {"ngram"}),
        (["memorize", "--ref", "{dir}/trace.csv", "--model", "{dir}/trace.csv"],
         {"ngram"}),
        (["toy-run", "--config", "{dir}/toy.cfg", "-o", "{dir}/toy"],
         {"dynamics", "spectral"}),
        (["sweep", "--manifest", "{dir}/m.json", "-o", "{dir}/sweep"], {"io", "spectral"}),
    ], ids=["passk", "dpo-check", "ngram-query", "rankme", "ngram-build", "memorize",
            "toy-run", "sweep"])
    def test_subcommand_loads_only_its_tools(self, tmp_path, matrix_file, argv, loaded):
        (tmp_path / "runs.csv").write_text("p0,4,1\n", encoding="utf-8")
        (tmp_path / "rewards.csv").write_text("1.0,0.5\n", encoding="utf-8")
        (tmp_path / "corpus.txt").write_text("1 2 3 1 2\n", encoding="utf-8")
        (tmp_path / "trace.csv").write_text("a,0,0.5\nb,0,0.25\nc,0,0.75\n",
                                            encoding="utf-8")
        (tmp_path / "toy.cfg").write_text("steps = 30\n", encoding="utf-8")
        (tmp_path / "m.json").write_text(json.dumps(
            {"entries": [{"label": "a", "path": str(matrix_file)}]}), encoding="utf-8")
        assert cli_dispatch(["ngram-build", "--corpus", str(tmp_path / "corpus.txt"),
                             "-o", str(tmp_path / "index.npz")]) == 0
        argv = [arg.format(dir=tmp_path, matrix=matrix_file) for arg in argv]
        code = ("import sys\n"
                "from specgeo.cli import cli_dispatch\n"
                "code = cli_dispatch(sys.argv[1:])\n"
                "mods = sorted(m for m in sys.modules if m.startswith('specgeo.'))\n"
                "print(code, ' '.join(mods), file=sys.stderr)\n")
        src = str(Path(specgeo.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, check=True)
        status, mods = proc.stderr.strip().splitlines()[-1].split(" ", 1)
        assert status == "0"
        assert mods.split() == sorted(["specgeo.cli", *(f"specgeo.{m}" for m in loaded)])


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert cli_dispatch(["rankme", "x.mat", "--bogus"]) == 2

    def test_missing_file_is_compute_error(self, capsys):
        assert cli_dispatch(["rankme", "does-not-exist.mat"]) == 1

    def test_bad_matrix_is_compute_error(self, tmp_path, capsys):
        path = tmp_path / "junk.mat"
        path.write_bytes(b"not a matrix")
        assert cli_dispatch(["rankme", str(path)]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0

    def test_memory_error_is_one_error_line(self, matrix_file, capsys, monkeypatch):
        from specgeo import spectral

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB")

        monkeypatch.setattr(spectral, "covariance_spectrum", no_memory)
        assert cli_dispatch(["rankme", str(matrix_file)]) == 1  # the solve's file
        assert capsys.readouterr() == ("", f"specgeo: error: {matrix_file}: Unable to "
                                           "allocate 7.11 PiB\n")

    def test_no_center_validates(self, tmp_path, capsys):
        # uncentered file with --no-center is a computation error
        rng = np.random.default_rng(3)
        fm = FeatureMatrix(rng.normal(size=(6, 3)) + 5.0)
        path = tmp_path / "raw.mat"
        write_matrix(fm, path)
        assert cli_dispatch(["rankme", str(path), "--no-center"]) == 1
        assert cli_dispatch(["rankme", str(path)]) == 0


def _matrix_bytes(data) -> bytes:
    """A float64 matrix file of any shape, also one FeatureMatrix rejects."""
    data = np.asarray(data, dtype="<f8")
    return struct.pack("<8sBQQ", b"SPECGEO1", 2, *data.shape) + data.tobytes()


_BAD_MATRICES = {
    "nan": [[1.0, 2.0], [np.nan, 0.0], [3.0, 1.0]],
    "inf": [[1.0, 2.0], [np.inf, 0.0], [3.0, 1.0]],
    "-inf": [[1.0, 2.0], [-np.inf, 0.0], [3.0, 1.0]],
    "both-inf": [[np.inf, 2.0], [-np.inf, 0.0], [3.0, 1.0]],
    "1e300": [[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]],
    "one-row": [[1.0, 2.0, 3.0]],
    "all-zero": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
}
_MATRIX_KINDS = ("rankme", "no-center", "spectrum", "alphareq", "ablate", "sweep")
# The error of each bad matrix that the solve finds, after the read.
_SOLVE_ERRORS = {
    **dict.fromkeys(("nan", "inf", "-inf", "both-inf"),
                    "feature matrix contains non-finite entries"),
    "1e300": "feature matrix covariance overflows float64",
}
_MANIFEST_HOLES = {
    "top-level-list": [],
    "entries-string": {"entries": "ab"},
    "no-entries": {"options": {}},
    "entry-not-object": {"entries": ["a.mat"]},
    "entry-no-label": {"entries": [{"path": "a.mat"}]},
    "entry-label-number": {"entries": [{"label": 5, "path": "a.mat"}]},
    "entry-path-null": {"entries": [{"label": "x", "path": None}]},
    "entry-unknown-key": {"entries": [{"label": "x", "path": "a.mat", "step": 1}]},
    "unknown-key": {"entries": [{"label": "x", "path": "a.mat"}], "option": {}},
    "options-list": {"options": []},
    "center-string": {"options": {"center": "false"}},
    "center-null": {"options": {"center": None}},
    "center-one": {"options": {"center": 1}},
    "centre": {"options": {"centre": False}},
    "window-floats": {"options": {"alpha_window": [1.7, 5.9]}},
    "window-bools": {"options": {"alpha_window": [True, 5]}},
    "window-three": {"options": {"alpha_window": [1, 5, 9]}},
    "window-number": {"options": {"alpha_window": 5}},
    "window-narrow": {"options": {"alpha_window": [2, 3]}},
    "ablation-number": {"options": {"ablation": 5}},
    "ablation-null": {"options": {"ablation": None}},
    "ablation-k-bool": {"options": {"ablation": {"k": True}}},
    "ablation-k-float": {"options": {"ablation": {"k": 2.0}}},
    "ablation-no-k": {"options": {"ablation": {"mode": "remove_top"}}},
    "missing-entry": {"entries": [{"label": "x", "path": "gone.mat"}]},
    "ablation-mode-number": {"options": {"ablation": {"k": 2, "mode": 1}}},
    "ablation-unknown-key": {"options": {"ablation": {"k": 2, "modes": "x"}}},
}


# A one-line toy config, and its error after the path: the start of it, or,
# where the text ends in a newline, all of it.
_BAD_TOY_LINES = {
    "d = 0": "d must be >= 1",
    "steps = 1.5": "line 1: steps: ",
    "lr = fast": "line 1: lr: ",
    "class_counts = 4,x,1,1": "line 1: class_counts: ",
    "seed =": "line 1: seed: ",
    "steps 20": "line 1: expected key = value",
    "steps = 0": "steps and record_every must be >= 1",
    "class_counts = 4,-1,1,1": "class counts must be nonnegative",
    "class_counts = 0,0,0,0": "batch must be nonempty",
    "label_odds = 0.5": "label_odds must be in [1, inf], got 0.5\n",
    "d = 5": "cannot balance: rank(f)=5 exceeds vocab=4, so no W with W W^T = f^T f "
             "exists\n",
    "d = 1000000000": "cannot balance: rank(f)=8 exceeds vocab=4, so no W with "
                      "W W^T = f^T f exists\n",
    "seed = -1": "seed must be >= 0, got -1\n",
}


# A file of each text reader with a byte that is not UTF-8, the argv that
# reads it, and the line the byte is on.  The corpus's bad byte lies past
# the decoder's first 8 KiB chunk; the offset after a byte-order mark is
# the file's, not the one the utf-8-sig decoder counts from after the mark.
_NOT_UTF8 = {
    "toy": ("toy.cfg", b"steps = 5\nseed = \xff\n",
            ["toy-run", "--config", "{path}", "-o", "{out}"], 2),
    "text-corpus": ("corpus.txt", b"0 1 2\n" * 2000 + b"\n1 \xff 0\n",
                    ["ngram-build", "--corpus", "{path}", "-o", "{out}"], 2002),
    "memorize": ("trace.csv", b"id,pos,p\na,0,0.5\nb,1,\xff\n",
                 ["memorize", "--ref", "{path}", "--model", "{path}"], 3),
    "passk": ("runs.csv", b"p0,4,1\n\xff,4,2\n", ["passk", "--input", "{path}", "--k", "1"], 2),
    "dpo-check": ("rewards.csv", b"1.0,0.5\r\n2.0,\xff\r\n",
                  ["dpo-check", "--input", "{path}"], 2),
    "manifest": ("m.json", b'{"entries": \xff}',
                 ["sweep", "--manifest", "{path}", "-o", "{out}"], 1),
    "bom-toy": ("toy.cfg", b"\xef\xbb\xbfsteps = 5\n\xff\n",
                ["toy-run", "--config", "{path}", "-o", "{out}"], 2),
}


# Index files that are no zip archive.
_NOT_ZIP = {"random-bytes": bytes(np.random.default_rng(0).integers(0, 256, 64,
                                                                    dtype=np.uint8)),
            "text": b"1 2 3 1 2\n"}


# A passk input's second row, the --k value, and the error line, which
# names the file and line of the bad row, or the flag alone: a k below 1
# is no row's fault.
_BAD_PASSK = {
    "no-samples": ("p1,0,0", "1", "{dir}/runs.csv: line 2: need at least one "
                   "sample, got N=0"),
    "c-above-n": ("p1,4,5", "1", "{dir}/runs.csv: line 2: correct count c=5 "
                  "outside [0, N=4]"),
    "n-below-k": ("p1,3,2", "1,4", "{dir}/runs.csv: line 2: k=4 exceeds N=3"),
    "k-flag": ("p1,4,2", "1,x", "--k: 'x' is not an integer"),
    "k-zero": ("p1,4,2", "0", "--k: k must be >= 1, got 0"),
    "k-negative": ("p1,4,2", "1,-3", "--k: k must be >= 1, got -3"),
}


# The --ref and --model traces of memorize, any flag, and the error line,
# which names the file and line of the bad row, or both files where the
# correlation of the two traces is undefined.
_TRACE = "example_id,token_index,prob\na,0,0.5\nb,1,0.25\nc,0,0.75\n"
_BOTH = "{dir}/ref.csv, {dir}/model.csv"
_BAD_TRACES = {
    "prob-above-one": (_TRACE.replace("0.25", "1.5"), _TRACE,
                       "{dir}/ref.csv: line 3: prob 1.5 is NaN or outside [0, 1]"),
    "prob-nan": (_TRACE, _TRACE.replace("0.75", "nan"),
                 "{dir}/model.csv: line 4: prob nan is NaN or outside [0, 1]"),
    "keys": (_TRACE, _TRACE.replace("b,1", "b,2"), "{dir}/ref.csv: line 3: example "
             "'b' token 1 has no matching row in {dir}/model.csv"),
    "duplicate-key": (_TRACE, _TRACE + "a,0,0.5\n", "{dir}/model.csv: line 5: example "
                      "'a' token 0 repeats line 2"),
    "model-key": (_TRACE, _TRACE.replace("b,1", "a,5"), "{dir}/model.csv: line 3: "
                  "example 'a' token 5 has no matching row in {dir}/ref.csv"),
    "model-extra": (_TRACE, _TRACE + "d,0,0.5\n", "{dir}/model.csv: line 5: example "
                    "'d' token 0 has no matching row in {dir}/ref.csv"),
    "ref-extra": (_TRACE + "d,0,0.5\n", _TRACE, "{dir}/ref.csv: line 5: example "
                  "'d' token 0 has no matching row in {dir}/model.csv"),
    "one-example": ("a,0,0.5\na,1,0.25\n", "a,0,0.5\na,1,0.25\n",
                    f"{_BOTH}: need at least 2 examples to correlate"),
    "per-token-one-row": ("a,0,0.5\n", "a,0,0.5\n", "--per-token",
                          f"{_BOTH}: need at least 2 pairs for a rank correlation"),
    "constant": (_TRACE.replace("0.25", "0.5").replace("0.75", "0.5"), _TRACE,
                 f"{_BOTH}: rank correlation undefined for a constant side"),
}


# A dpo-check input and its error line, which names the file and the line
# of the bad row.  Rows whose losses sum beyond float64 before it do not
# hide its line.
_BAD_DPO = {
    "gap-overflow": ("r_w,r_l\n1.0,0.5\n-1e308,1e308\n",
                     "{dir}/rewards.csv: line 3: reward gap overflows float64"),
    "gap-after-sum": ("r_w,r_l\n-5e307,5e307\n-5e307,5e307\n1.0,0.5\n-1e308,1e308\n",
                      "{dir}/rewards.csv: line 5: reward gap overflows float64"),
}
# dpo-check inputs whose losses are each finite but sum beyond float64, and
# the dpo_loss values each may give: the mean exists, so it is no error.
_MAX = sys.float_info.max
_DPO_MEANS = {
    "sum-overflow": ("-5e307,5e307\n-5e307,5e307\n", (1e308,)),
    "max-losses": (f"{-_MAX / 2!r},{_MAX / 2!r}\n" * 3, (_MAX, np.nextafter(_MAX, 0))),
}


# Corpora without tokens, each as file name and bytes.
_EMPTY_CORPORA = {"empty-text": ("corpus.txt", b""),
                  "blank-lines": ("corpus.txt", b"\n  \n\r\n"),
                  "no-rows": ("corpus.mat", _matrix_bytes(np.zeros((0, 3)))),
                  "no-columns": ("corpus.mat", _matrix_bytes(np.zeros((3, 0))))}


# Toy configs whose run is refused before its first step: two that record
# steps 0 and `steps` only, and one of 10^15 steps, whose 7.11 PiB of record
# steps no machine can allocate (x86-64 user space is 128 TiB).
_TOY_RUNS = {"short": "steps = 5\nrecord_every = 10\n",
             "equal": "steps = 10\nrecord_every = 10\n",
             "10^15": "steps = 1000000000000000\n"}

# The message of an allocation of 10^15 int64 values, and of a vocabulary of
# 10^15 tokens, whose tally in each query would be such an allocation.
_NO_MEMORY = ("Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) "
              "and data type int64")
_NO_TALLY = ("vocab_size 1000000000000000 is too large: each query's tally of "
             "8000000000000000 bytes cannot be allocated")


def _contract_case(case: str, tmp_path) -> tuple:
    """(argv, expected exit code) of one bad-input case; inputs go under
    ``tmp_path``, outputs under ``tmp_path / "out"``."""
    kind, name = case.split(":", 1)
    out = str(tmp_path / "out")
    if kind in _MATRIX_KINDS and name in _BAD_MATRICES:
        path = tmp_path / "a.mat"
        path.write_bytes(_matrix_bytes(_BAD_MATRICES[name]))
        if kind == "sweep":
            doc = {"entries": [{"label": "x", "path": "a.mat"}],
                   "options": {"ablation": {"k": 1}}}
            (tmp_path / "m.json").write_text(json.dumps(doc), encoding="utf-8")
            return ["sweep", "--manifest", str(tmp_path / "m.json"), "-o", out], 1
        flags = {"rankme": ["rankme"], "no-center": ["rankme", "--no-center"],
                 "spectrum": ["spectrum"], "alphareq": ["alphareq"],
                 "ablate": ["ablate", "-k", "1", "-o", out]}
        # an all-zero matrix has a spectrum, and an ablation, but no RankMe
        # and no power-law fit
        solved = name == "all-zero" and kind in ("spectrum", "ablate")
        return [*flags[kind], str(path)], 0 if solved else 1
    if kind == "corpus":
        rows = {"one-row": [[0.0, 1.0, 0.0, 2.0]], "floats": [[0.0, 1.5], [1.0, 2.0]],
                "nan": [[0.0, np.nan], [1.0, 2.0]], "2^63": [[0.0, 2.0**63]]}[name]
        path = tmp_path / "corpus.mat"
        path.write_bytes(_matrix_bytes(rows))
        return ["ngram-build", "--corpus", str(path), "-o", out], \
            0 if name == "one-row" else 1
    if kind == "empty-corpus":
        path = tmp_path / _EMPTY_CORPORA[name][0]
        path.write_bytes(_EMPTY_CORPORA[name][1])
        return ["ngram-build", "--corpus", str(path), "-o", out], 1
    if kind == "text-corpus":
        path = tmp_path / "corpus.txt"
        bad = {"float": "1 1.5 0", "negative": "3 -1 2", "max-id": f"{2**63 - 1} 0",
               "id-10^15": f"{10**15 - 1} 0"}[name]
        path.write_text(f"0 1 2\n\n{bad}\n", encoding="utf-8")
        return ["ngram-build", "--corpus", str(path), "-o", out], 1
    if kind in ("index", "context"):
        tokens = np.array([1, 2, 3, 1, 2])
        arrays = {"tokens": tokens, "doc_boundaries": np.array([5]),
                  "vocab_size": np.int64(4), "sa": np.array([3, 0, 4, 1, 2])}
        if name == "float-tokens":
            arrays["tokens"] = np.array([1.7, 2.2, 3.9, 1.1, 2.0])
        elif name == "float-bounds":
            arrays["doc_boundaries"] = np.array([2.7, 5.0])
        elif name == "vocab-size-array":
            arrays["vocab_size"] = np.array([4, 4])
        elif name == "vocab-size-float":
            arrays["vocab_size"] = np.float64(4.5)
        elif name == "float-sa":
            arrays["sa"] = np.array([3, 0, 4, 1.5, 2])
        elif name == "complex-tokens":
            arrays["tokens"] = tokens + 0j
        elif name == "complex-bounds":
            arrays["doc_boundaries"] = np.array([5 + 0j])
        elif name == "object-tokens":
            arrays["tokens"] = tokens.astype(object)
        elif name == "vocab-10^15":  # an index ngram-build refuses to write
            arrays["vocab_size"] = np.int64(10**15)
        elif name == "vocab-negative":
            arrays["vocab_size"] = np.int64(-5)
        np.savez(tmp_path / "index.npz", **arrays)
        if name in _NOT_ZIP:
            (tmp_path / "index.npz").write_bytes(_NOT_ZIP[name])
        return ["ngram-query", "--index", str(tmp_path / "index.npz"),
                "--context", {"word": "2 x", "negative": "1 -2"}.get(name, "2"),
                "--json"], 1
    if kind == "csv":  # one quoted field longer than csv's field limit
        (tmp_path / "rewards.csv").write_bytes(b'1.0,"' + b"9" * 140_000 + b'"\n')
        return ["dpo-check", "--input", str(tmp_path / "rewards.csv")], 1
    if kind == "not-utf8":
        name, data, argv, _ = _NOT_UTF8[name]
        (tmp_path / name).write_bytes(data)
        return [arg.format(path=tmp_path / name, out=out) for arg in argv], 1
    if kind in ("toy-run", "toy-verify"):
        (tmp_path / "toy.cfg").write_text(_TOY_RUNS[name], encoding="utf-8")
        return [kind, "--config", str(tmp_path / "toy.cfg"),
                *(["-o", out] if kind == "toy-run" else [])], 1
    if kind == "manifest":
        write_matrix(synthetic_power_law_matrix(np.random.default_rng(0), 1.0),
                     tmp_path / "a.mat")
        if name == "deep":  # nested deeper than the JSON decoder follows
            text = "[" * 100_000
        else:
            doc = _MANIFEST_HOLES[name]
            if isinstance(doc, dict) and "entries" not in doc and name != "no-entries":
                doc = {"entries": [{"label": "x", "path": "a.mat"}], **doc}
            text = json.dumps(doc)
        (tmp_path / "m.json").write_text(text, encoding="utf-8")
        return ["sweep", "--manifest", str(tmp_path / "m.json"), "-o", out], 1
    if kind == "passk":
        row, ks, _ = _BAD_PASSK[name]
        (tmp_path / "runs.csv").write_text(f"p0,4,1\n{row}\n", encoding="utf-8")
        return ["passk", "--input", str(tmp_path / "runs.csv"), "--k", ks], 1
    if kind == "dpo-check":
        text, _ = _BAD_DPO.get(name) or _DPO_MEANS[name]
        (tmp_path / "rewards.csv").write_text(text, encoding="utf-8")
        return ["dpo-check", "--input", str(tmp_path / "rewards.csv"), "--json"], \
            0 if name in _DPO_MEANS else 1
    if kind == "memorize":
        ref, model, *flags, _ = _BAD_TRACES[name]
        (tmp_path / "ref.csv").write_text(ref, encoding="utf-8")
        (tmp_path / "model.csv").write_text(model, encoding="utf-8")
        return ["memorize", "--ref", str(tmp_path / "ref.csv"),
                "--model", str(tmp_path / "model.csv"), *flags], 1
    if kind in ("alphareq", "ablate-k"):  # a fit window from rank 0 or of 2 ranks, or k = 0
        write_matrix(synthetic_power_law_matrix(np.random.default_rng(0), 1.0),
                     tmp_path / "a.mat")
        flags = {"window": ["--window", "0", "5"], "narrow": ["--window", "2", "3"],
                 "0": ["-k", "0", "-o", out]}
        return [kind.split("-")[0], str(tmp_path / "a.mat"), *flags[name]], 1
    if kind == "ngram-build":  # a corpus id at --vocab-size, or a vocabulary no
        # query can use: negative, from 2^63, or too large for each query's tally
        corpus, vocab = {"vocab-size": ("0 1 2", "2"),
                         "vocab-negative": ("0 1 2", "-5"),
                         "vocab-negative-blank": ("", "-5"),
                         "vocab-10^15": ("0 1 2 1 0 1 2", str(10**15)),
                         "vocab-2^61": ("0 1 2", str(2**61)),
                         "vocab-2^63": ("0 1 2", str(2**63))}[name]
        (tmp_path / "corpus.txt").write_text(f"{corpus}\n", encoding="utf-8")
        return ["ngram-build", "--corpus", str(tmp_path / "corpus.txt"),
                "--vocab-size", vocab, "-o", out], 1
    (tmp_path / "toy.cfg").write_text(f"{name}\n", encoding="utf-8")
    return ["toy-run", "--config", str(tmp_path / "toy.cfg"), "-o", out], 1


# Errors of a run or of an argument, not of a file, and their whole text;
# each is a case of the contract.
_RUN_ERRORS = {
    "alphareq:window": "--window: window (0, 5) out of range for any d",
    "alphareq:narrow": "--window: window (2, 3) holds 2 ranks; a power-law fit needs 3",
    "ablate-k:0": "-k: k must be in [1, d], got 0",
    "ngram-build:vocab-10^15": f"--vocab-size: {_NO_TALLY}",
    "ngram-build:vocab-2^61": "--vocab-size: vocab_size 2305843009213693952 is too "
                              "large: each query's tally of 18446744073709551616 bytes "
                              "cannot be allocated",
    "ngram-build:vocab-2^63": "--vocab-size: vocab_size has value 9223372036854775808, "
                              "not an integer in [0, 2^63)",
    "ngram-build:vocab-negative": "--vocab-size: vocab_size must be >= 0, got -5",
    "ngram-build:vocab-negative-blank": "--vocab-size: vocab_size must be >= 0, got -5",
    "toy-run:10^15": _NO_MEMORY,
    "toy-verify:10^15": _NO_MEMORY,
}


_CONTRACT_CASES = (
    [f"{kind}:{name}" for kind in _MATRIX_KINDS for name in _BAD_MATRICES]
    + [f"corpus:{name}" for name in ("one-row", "floats", "nan", "2^63")]
    + ["index:float-tokens", "index:float-bounds", "index:float-sa",
       "index:vocab-size-array", "index:vocab-size-float", "index:vocab-negative",
       "index:complex-tokens", "index:complex-bounds", "index:object-tokens",
       "index:vocab-10^15"]
    + [f"index:{name}" for name in _NOT_ZIP]
    + ["csv:long-field"]
    + [f"empty-corpus:{name}" for name in _EMPTY_CORPORA]
    + ["text-corpus:float", "text-corpus:negative", "text-corpus:max-id",
       "text-corpus:id-10^15", "context:word", "context:negative"]
    + [f"manifest:{name}" for name in (*_MANIFEST_HOLES, "deep")]
    + [f"toy:{line}" for line in _BAD_TOY_LINES]
    + [f"not-utf8:{name}" for name in _NOT_UTF8]
    + [f"{command}:{name}" for command in ("toy-run", "toy-verify")
       for name in ("short", "equal")]
    + ["ngram-build:vocab-size"]
    + [f"passk:{name}" for name in _BAD_PASSK]
    + [f"memorize:{name}" for name in _BAD_TRACES]
    + [f"dpo-check:{name}" for name in (*_BAD_DPO, *_DPO_MEANS)]
    + list(_RUN_ERRORS)
)


def _not_utf8_error(name: str) -> str:
    """The error line of a ``_NOT_UTF8`` file: its path, its line, and the
    decoder's message with the byte's offset in the file."""
    file, data, _, line = _NOT_UTF8[name]
    start = data.index(b"\xff")
    return (f"error: {{dir}}/{file}: line {line}: 'utf-8' codec can't decode byte "
            f"0xff in position {start}: invalid start byte\n")


# Where each of these error lines must name the input's source.
_NAMED_SOURCES = {
    "index:float-tokens": "error: {dir}/index.npz: tokens has token id 1.7,",
    "index:float-bounds": "error: {dir}/index.npz: doc_boundaries has boundary 2.7,",
    "index:float-sa": "error: {dir}/index.npz: suffix array has entry 1.5, not an "
                      "integer in [0, 2^63)\n",
    "index:vocab-size-array": "error: {dir}/index.npz: vocab_size must be a scalar, "
                              "got shape (2,)\n",
    "index:vocab-size-float": "error: {dir}/index.npz: vocab_size has value 4.5, not "
                              "an integer in [0, 2^63)\n",
    "index:vocab-negative": "error: {dir}/index.npz: vocab_size must be >= 0, got -5\n",
    "index:complex-tokens": "error: {dir}/index.npz: tokens must hold integers or "
                            "floats, got complex128\n",
    "index:complex-bounds": "error: {dir}/index.npz: doc_boundaries must hold "
                            "integers or floats, got complex128\n",
    "index:object-tokens": "error: {dir}/index.npz: Object arrays cannot be loaded",
    "index:vocab-10^15": f"error: {{dir}}/index.npz: {_NO_TALLY}\n",
    **{f"index:{name}": "error: {dir}/index.npz: damaged index file: File is not a "
       "zip file\n" for name in _NOT_ZIP},
    "csv:long-field": "error: {dir}/rewards.csv: line 1: field larger than field "
                      "limit (131072)\n",
    **{f"{kind}:{name}": f"error: {{dir}}/a.mat: {text}\n"
       for kind in ("rankme", "spectrum", "alphareq", "ablate")
       for name, text in _SOLVE_ERRORS.items()},
    "no-center:1e300": "error: {dir}/a.mat: feature matrix covariance overflows float64\n",
    **{f"{kind}:all-zero": "error: {dir}/a.mat: rankme undefined for an all-zero "
       "spectrum\n" for kind in ("rankme", "no-center")},
    "alphareq:all-zero": "error: {dir}/a.mat: power-law fit needs >= 3 usable points, "
                         "got 0\n",
    **{f"manifest:{name}": "error: {dir}/m.json: manifest" for name in _MANIFEST_HOLES},
    "manifest:missing-entry": "error: {dir}/m.json: manifest entry 'x': missing "
                              "{dir}/gone.mat\n",
    "manifest:deep": "error: {dir}/m.json: maximum recursion depth exceeded",
    "ngram-build:vocab-size": "error: {dir}/corpus.txt: token id 2 >= vocab_size 2\n",
    "manifest:entries-string": "error: {dir}/m.json: manifest.entries must be a list, "
                               "got a string\n",
    "manifest:window-narrow": "error: {dir}/m.json: manifest.options: window (2, 3) holds "
                              "2 ranks; a power-law fit needs 3\n",
    "text-corpus:float": "error: {dir}/corpus.txt: line 3: token '1.5' is not",
    "text-corpus:negative": "error: {dir}/corpus.txt: line 3: negative token id -1",
    "text-corpus:max-id": "error: {dir}/corpus.txt: vocab_size has value "
                          "9223372036854775808, not an integer in [0, 2^63)\n",
    "text-corpus:id-10^15": f"error: {{dir}}/corpus.txt: {_NO_TALLY}\n",
    "context:word": "error: --context: token 'x' is not",
    "context:negative": "error: --context: negative token id -2",
    **{f"toy:{line}": f"error: {{dir}}/toy.cfg: {named}"
       for line, named in _BAD_TOY_LINES.items()},
    **{f"not-utf8:{name}": _not_utf8_error(name) for name in _NOT_UTF8},
    **{f"{command}:{name}": "error: {dir}/toy.cfg: need at least 3 records to "
       "analyze a trajectory, got 2\n" for command in ("toy-run", "toy-verify")
       for name in ("short", "equal")},
    **{f"empty-corpus:{name}": f"error: {{dir}}/{file}: cannot index an empty corpus\n"
       for name, (file, _) in _EMPTY_CORPORA.items()},
    **{f"{kind}:{name}": f"error: {named}\n"
       for kind, cases in (("passk", _BAD_PASSK), ("memorize", _BAD_TRACES),
                           ("dpo-check", _BAD_DPO))
       for name, (*_, named) in cases.items()},
}


def _no_step(*args):
    raise AssertionError("a gradient step ran")


@pytest.mark.parametrize("case", _CONTRACT_CASES)
def test_bad_input_contract(tmp_path, capsys, monkeypatch, case):
    """Each bad input exits 1 with at most one ``specgeo: error:`` line on
    stderr (a sweep records entry failures in its report instead), and
    nothing else: no numpy RuntimeWarning, no traceback.  A one-row matrix
    corpus is no bad input: it is one document.  Nor are an all-zero
    matrix, which has a spectrum and an ablation, and the DPO files whose
    losses sum beyond float64, which have a mean.  Where the input has a
    source to name, the line names it; an error of a run or of an argument
    is its whole text.  A refused toy run fails before its first step."""
    from specgeo import dynamics

    monkeypatch.setattr(dynamics, "_step", _no_step)
    argv, want = _contract_case(case, tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_dispatch(argv)
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == want
    if case.startswith("sweep:"):
        assert err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["records"] == [] and len(report["errors"]) == 1
    elif code:
        assert err.startswith("specgeo: error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("out*"))
        if case in _NAMED_SOURCES:
            assert _NAMED_SOURCES[case].format(dir=tmp_path) in err
        if case in _RUN_ERRORS:
            assert err == f"specgeo: error: {_RUN_ERRORS[case]}\n"
    else:
        assert err == ""
        if case.startswith("dpo-check:"):
            doc = json.loads(out)
            assert doc["dpo_loss"] in _DPO_MEANS[case.split(":")[1]][1]
            assert doc["max_identity_gap"] == 0.0


# One input of each text reader, and the argv that reads it from the
# working directory; outputs go to "out" or "out.npz".  Both CSV routes
# are covered: plain files and quoted fields.
_TEXT_INPUTS = {
    "toy": ("toy.cfg", "steps = 30\r\nlr = 0.05\n",
            ["toy-run", "--config", "toy.cfg", "-o", "out"]),
    "text-corpus": ("corpus.txt", "0 1 2 1\n2 0 1\n",
                    ["ngram-build", "--corpus", "corpus.txt", "-o", "out.npz"]),
    "memorize": ("trace.csv", "a,0,0.5\na,1,0.25\nb,0,0.125\nc,0,0.75\n",
                 ["memorize", "--ref", "trace.csv", "--model", "trace.csv"]),
    "memorize-quoted": ("trace.csv",
                        'example_id,token_index,prob\n"a,1",0,0.5\nb,0,0.25\nc,0,0.75\n',
                        ["memorize", "--ref", "trace.csv", "--model", "trace.csv"]),
    "passk": ("runs.csv", "p0,4,1\np1,8,3\n", ["passk", "--input", "runs.csv", "--k", "1,2"]),
    "dpo-check": ("rewards.csv", "1.0,0.5\n-0.25,2.0\n",
                  ["dpo-check", "--input", "rewards.csv"]),
    "manifest": ("m.json", '{"entries": [{"label": "a", "path": "a.mat"}]}',
                 ["sweep", "--manifest", "m.json", "-o", "out"]),
}


def _outputs(work: Path, input_name: str) -> dict:
    """Every file a command left in ``work`` but its input: bytes, or the
    arrays of an ``.npz``, whose zip entries carry the time of writing."""
    files = {}
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.name != input_name:
            if path.suffix == ".npz":
                with np.load(path) as doc:
                    files[path.name] = {key: doc[key].tolist() for key in doc.files}
            else:
                files[path.name] = path.read_bytes()
    return files


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("name", _TEXT_INPUTS)
def test_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch, name):
    """A text input that starts with a UTF-8 byte-order mark gives the same
    exit code, stdout and output files as the same input without it."""
    file, text, argv = _TEXT_INPUTS[name]
    runs = []
    for mark in (b"", _BOM):
        work = tmp_path / ("mark" if mark else "plain")
        work.mkdir()
        write_matrix(synthetic_power_law_matrix(np.random.default_rng(0), 1.0),
                     work / "a.mat")
        (work / file).write_bytes(mark + text.encode("utf-8"))
        monkeypatch.chdir(work)
        code = cli_dispatch(argv)
        runs.append((code, *capsys.readouterr(), _outputs(work, file)))
    code, _, err, _ = runs[0]
    assert code == 0 and err == ""
    assert runs[1] == runs[0]


@st.composite
def _mutations(draw, data: bytes) -> bytes:
    """``data`` after one to three byte flips, truncations, appended junk
    or prepended byte-order marks."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "append", "mark"]))
        if kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif kind == "append":
            data += draw(st.binary(min_size=1, max_size=8))
        else:
            data = _BOM + data
    return data


def _index_bytes() -> bytes:
    tokens = np.array([1, 2, 3, 1, 2])
    corpus = TokenCorpus(tokens=tokens, doc_boundaries=[3, 5], vocab_size=4)
    buf = io.BytesIO()
    np.savez(buf, tokens=tokens, doc_boundaries=corpus.doc_boundaries,
             vocab_size=np.int64(4), sa=build_index(corpus).sa)
    return buf.getvalue()


# Each file-reading subcommand: its input file, the input's bytes, the argv
# (inputs and outputs under the working directory) and its reader, the
# function the subcommand reads that input with.
_READERS = {
    "manifest": ("m.json", json.dumps({"entries": [{"label": "a", "path": "a.mat"}],
                                       "options": {"alpha_window": [1, 3]}}).encode(),
                 ["sweep", "--manifest", "m.json", "-o", "out"], load_manifest),
    "toy": ("toy.cfg", b"steps = 20\nlr = 0.05\nclass_counts = 4,2,1,1\nsteps = 20\n",
            ["toy-run", "--config", "toy.cfg", "-o", "out"], cli._toy_config),
    "memorize": ("ref.csv", b"example_id,token_index,prob\na,0,0.5\nb,0,0.25\nc,0,0.75\n",
                 ["memorize", "--ref", "ref.csv", "--model", "ref.csv"], cli._read_trace_csv),
    "passk": ("runs.csv", b"problem_id,N,c\np0,4,1\np1,8,3\n",
              ["passk", "--input", "runs.csv", "--k", "1,2"],
              lambda path: cli._read_columns(path, PASSK)),
    "dpo-check": ("rewards.csv", b"r_w,r_l\n1.0,0.5\n-0.25,2.0\n",
                  ["dpo-check", "--input", "rewards.csv"],
                  lambda path: cli._read_columns(path, DPO)),
    "index": ("index.npz", _index_bytes(),
              ["ngram-query", "--index", "index.npz", "--context", "1 2"], cli._load_index),
    "matrix": ("a.mat", _matrix_bytes(np.arange(24.0).reshape(6, 4) % 5),
               ["rankme", "a.mat"],
               lambda path: cli._matrix(path, True,
                                        lambda fm: rankme(covariance_spectrum(fm)))),
    "text-corpus": ("corpus.txt", b"0 1 2 1\n2 0 1\n",
                    ["ngram-build", "--corpus", "corpus.txt", "-o", "out.npz"],
                    cli._read_corpus),
    "matrix-corpus": ("corpus.mat", _matrix_bytes([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0]]),
                      ["ngram-build", "--corpus", "corpus.mat", "-o", "out.npz"],
                      cli._read_corpus),
}


@contextlib.contextmanager
def _in_temp_dir():
    """A new temporary directory as the working directory, for the
    duration of the block (``contextlib.chdir`` needs Python 3.11)."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(old)


class TestReaderMutationContract:
    @pytest.mark.parametrize("name", _READERS)
    def test_exit_and_error_line(self, name):
        """On a mutated input: exit 0 or 1; stderr empty or one ``specgeo:
        error:`` line, which for an error of the reader is that ValueError
        and names the file; no output after an error line.  A sweep whose
        entry fails exits 1 with its report written."""
        file, data, argv, reader = _READERS[name]

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(mutated=_mutations(data))
        def check(mutated):
            with _in_temp_dir() as work:
                if name == "manifest":
                    Path("a.mat").write_bytes(_READERS["matrix"][1])
                Path(file).write_bytes(mutated)
                try:
                    value = reader(file)
                    reader_error = None
                except ValueError as exc:
                    reader_error = exc
                # an empty or commented-out toy config runs 50 000 steps
                assume(name != "toy" or reader_error or value.steps <= 1000)
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    code = cli_dispatch(argv)
                err = err.getvalue()
                assert [str(w.message) for w in caught] == []
                assert code in (0, 1)
                assert err == "" or (err.startswith("specgeo: error: ")
                                     and err.count("\n") == 1)
                if reader_error is not None:
                    assert code == 1 and err == f"specgeo: error: {reader_error}\n"
                    assert err.startswith(f"specgeo: error: {file}: ")
                if err:
                    assert code == 1 and not list(work.glob("out*"))
                elif code:
                    assert name == "manifest"

        check()

    def test_sweep_entry(self):
        """A sweep over a mutated matrix file exits 0 or 1 with stderr empty
        and its report written; an error of any other type than the sweep
        records propagates and fails the test."""
        data = _READERS["matrix"][1]
        manifest = json.dumps({"entries": [{"label": "a", "path": "a.mat"}],
                               "options": {"ablation": {"k": 2}}})

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(mutated=_mutations(data))
        def check(mutated):
            with _in_temp_dir():
                Path("m.json").write_text(manifest, encoding="utf-8")
                Path("a.mat").write_bytes(mutated)
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    code = cli_dispatch(["sweep", "--manifest", "m.json", "-o", "out"])
                assert [str(w.message) for w in caught] == []
                assert code in (0, 1) and err.getvalue() == ""
                report = json.loads(Path("out/report.json").read_text(encoding="utf-8"))
                assert code == len(report["errors"]) == 1 - len(report["records"])

        check()


def _run_child(work: Path, argv: list, stdin=None) -> tuple:
    """(exit code, stdout, stderr) of ``specgeo argv`` run in ``work`` as a
    child process, fed ``stdin``; a child that hangs fails in seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(specgeo.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "specgeo.cli", *argv], cwd=work, env=env,
                          input=stdin, stdin=None if stdin else subprocess.DEVNULL,
                          capture_output=True, timeout=15)
    return proc.returncode, proc.stdout, proc.stderr


def _release(pipe: Path, writer: threading.Thread) -> None:
    """End ``writer``, which feeds ``pipe``: a reader opened and closed at
    once ends a writer still waiting for one, or still writing."""
    deadline = time.monotonic() + 10
    while writer.is_alive() and time.monotonic() < deadline:
        os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(0.05)
    assert not writer.is_alive()


_PIPED_INDEX = ("index file must be a regular file, not a pipe: zip reads its directory "
                "by seeking")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("name", _READERS)
def test_each_reader_reads_a_pipe(tmp_path, name):
    """Each reader opens its input once, so a named pipe fed five bytes at
    a time gives what the regular file gives: exit code, stdout, stderr
    (naming the pipe) and output files.  A command with two inputs reads
    one pipe per flag.  An index is read by seeking: a piped one is refused."""
    file, data, argv, _ = _READERS[name]
    runs = []
    for piped in (False, True):
        work = tmp_path / ("pipe" if piped else "file")
        work.mkdir()
        if name == "manifest":
            Path(work / "a.mat").write_bytes(_READERS["matrix"][1])
        args, writers = list(argv), {}
        for i, arg in enumerate(argv):
            if arg == file and piped:
                args[i] = f"pipe{i}"
                os.mkfifo(work / args[i])
                writers[args[i]] = threading.Thread(
                    target=_feed, args=(work / args[i], data, 5), daemon=True)
        if not piped:
            (work / file).write_bytes(data)
        for writer in writers.values():
            writer.start()
        try:
            code, out, err = _run_child(work, args)
        finally:
            for pipe, writer in writers.items():
                _release(work / pipe, writer)
        runs.append((code, out, err.decode(), _outputs(work, file)))
    if name == "index":
        assert runs[0][0] == 0
        assert runs[1] == (1, b"", f"specgeo: error: pipe2: {_PIPED_INDEX}\n", {})
    else:
        pipe = next(iter(writers))
        assert runs[0][0] == 0 and runs[0][2] == ""
        assert runs[1][:2] + (runs[1][2].replace(pipe, file),) + runs[1][3:] == runs[0]


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
def test_corpus_piped_to_stdin_builds_the_files_index(tmp_path):
    """A corpus larger than the first read of a pipe (8 KiB) builds the
    same index from standard input as from its file."""
    rng = np.random.default_rng(25)
    data = "".join(" ".join(map(str, rng.integers(0, 1000, 50))) + "\n"
                   for _ in range(400)).encode()
    (tmp_path / "corpus.txt").write_bytes(data)
    from_file = _run_child(tmp_path, ["ngram-build", "--corpus", "corpus.txt",
                                      "-o", "file.npz"])
    piped = _run_child(tmp_path, ["ngram-build", "--corpus", "/dev/stdin", "-o", "pipe.npz"],
                       stdin=data)
    assert from_file == (0, b"indexed 20000 tokens -> file.npz\n", b"")
    assert piped == (0, b"indexed 20000 tokens -> pipe.npz\n", b"")
    outputs = _outputs(tmp_path, "corpus.txt")
    assert outputs["pipe.npz"] == outputs["file.npz"]
