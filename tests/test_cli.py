"""End-to-end command-line interface tests."""

import json
import warnings

import numpy as np
import pytest

from specgeo import cli
from specgeo.cli import cli_dispatch
from specgeo.io import read_matrix, write_matrix
from specgeo.ngram import TokenCorpus, build_index
from specgeo.spectral import FeatureMatrix

from test_dynamics import DIVERGING
from test_io import synthetic_power_law_matrix


@pytest.fixture()
def matrix_file(tmp_path):
    rng = np.random.default_rng(0)
    fm = synthetic_power_law_matrix(rng, 1.0)
    path = tmp_path / "feat.mat"
    write_matrix(fm, path)
    return path


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

    def test_alphareq(self, matrix_file, capsys):
        code, doc = run_json(capsys, ["alphareq", str(matrix_file), "--json"])
        assert code == 0
        assert doc["alpha_req"] == pytest.approx(1.0, abs=1e-6)

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
        assert err == "specgeo: error: suffix array is not in suffix order\n"

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

    def test_toy_verify(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("steps = 1500\n", encoding="utf-8")
        code, doc = run_json(capsys, ["toy-verify", "--config", str(cfg),
                                      "--json"])
        assert code == 0
        assert doc["growth_law"]["f_side"]["max"] <= 0.05
        assert doc["conservation"]["residual_step0"] <= 1e-12
        assert doc["primacy"]["margin_crossing_step"] is not None

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
        assert err == f"specgeo: error: no data rows in {path}\n"


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

    def test_no_center_validates(self, tmp_path, capsys):
        # uncentered file with --no-center is a computation error
        rng = np.random.default_rng(3)
        fm = FeatureMatrix(rng.normal(size=(6, 3)) + 5.0)
        path = tmp_path / "raw.mat"
        write_matrix(fm, path)
        assert cli_dispatch(["rankme", str(path), "--no-center"]) == 1
        assert cli_dispatch(["rankme", str(path)]) == 0
