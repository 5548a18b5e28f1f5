"""Matrix file format, manifests, and the sweep driver."""

import json

import numpy as np
import pytest

from specgeo.io import (
    MAGIC,
    BadDtypeError,
    BadMagicError,
    MatrixFormatError,
    MetricsReport,
    RunManifest,
    SizeMismatchError,
    SweepOptions,
    load_manifest,
    read_matrix,
    sweep,
    write_matrix,
)
from specgeo.spectral import (
    FeatureMatrix,
    ablate_spectrum,
    center_features,
    covariance_spectrum,
    rankme,
)


def random_matrix(rng, m=3, d=2):
    return FeatureMatrix(rng.normal(size=(m, d)))


def synthetic_power_law_matrix(rng, alpha, m=64, d=24):
    """Column-centered matrix whose covariance spectrum is i^(-alpha)."""
    lam = np.arange(1, d + 1, dtype=float) ** -alpha
    g = rng.normal(size=(m, d))
    g -= g.mean(axis=0, keepdims=True)  # orthogonal to the ones vector
    q1, _ = np.linalg.qr(g)
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    data = q1 @ np.diag(np.sqrt(m * lam)) @ q2.T
    return FeatureMatrix(data, centered=True)


class TestMatrixRoundTrip:
    def test_f64_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        fm = random_matrix(rng)
        path = tmp_path / "m.mat"
        write_matrix(fm, path)
        back = read_matrix(path)
        assert back.data.tobytes() == fm.data.tobytes()

    def test_f32_widened_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        fm = random_matrix(rng, 4, 3)
        path = tmp_path / "m32.mat"
        write_matrix(fm, path, dtype="f32")
        back = read_matrix(path)
        expected = fm.data.astype(np.float32).astype(np.float64)
        assert back.data.tobytes() == expected.tobytes()

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "t.mat"
        write_matrix(random_matrix(rng), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(SizeMismatchError):
            read_matrix(path)

    def test_padded_payload(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "p.mat"
        write_matrix(random_matrix(rng), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(SizeMismatchError):
            read_matrix(path)

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "b.mat"
        write_matrix(random_matrix(rng), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_matrix(path)

    def test_bad_dtype(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "d.mat"
        write_matrix(random_matrix(rng), path)
        raw = bytearray(path.read_bytes())
        raw[8] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(BadDtypeError):
            read_matrix(path)

    def test_header_byte_fuzz(self, tmp_path):
        """Flipping any single header byte must raise a format error."""
        rng = np.random.default_rng(6)
        path = tmp_path / "fuzz.mat"
        write_matrix(random_matrix(rng, 3, 2), path)
        pristine = path.read_bytes()
        for offset in range(25):
            raw = bytearray(pristine)
            raw[offset] ^= 0x5A
            path.write_bytes(bytes(raw))
            with pytest.raises(MatrixFormatError):
                read_matrix(path)
        path.write_bytes(pristine)
        read_matrix(path)  # pristine file still loads

    def test_short_file(self, tmp_path):
        path = tmp_path / "s.mat"
        path.write_bytes(MAGIC)
        with pytest.raises(SizeMismatchError):
            read_matrix(path)


class TestManifest:
    def write_manifest(self, tmp_path, entries, options=None):
        doc = {"entries": entries}
        if options:
            doc["options"] = options
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_duplicate_labels_rejected(self, tmp_path):
        rng = np.random.default_rng(7)
        write_matrix(random_matrix(rng), tmp_path / "a.mat")
        path = self.write_manifest(
            tmp_path,
            [{"label": "x", "path": "a.mat"}, {"label": "x", "path": "a.mat"}],
        )
        with pytest.raises(ValueError, match="unique"):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, [{"label": "x", "path": "nope.mat"}])
        with pytest.raises(FileNotFoundError):
            load_manifest(path)

    def test_empty_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, [])
        with pytest.raises(ValueError):
            load_manifest(path)


class TestSweep:
    def build(self, tmp_path, alphas, rng=None):
        rng = rng or np.random.default_rng(8)
        entries = []
        for i, alpha in enumerate(alphas):
            fm = synthetic_power_law_matrix(rng, alpha)
            name = f"ckpt{i}.mat"
            write_matrix(fm, tmp_path / name)
            entries.append({"label": f"step{i}", "path": name})
        doc = {"entries": entries, "options": {"center": True}}
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(doc), encoding="utf-8")
        return manifest_path

    def test_alpha_recovery(self, tmp_path):
        path = self.build(tmp_path, [0.5, 1.0, 2.0])
        report = sweep(load_manifest(path))
        assert report.ok
        got = [rec["alpha_req"] for rec in report.records]
        np.testing.assert_allclose(got, [0.5, 1.0, 2.0], atol=1e-6)

    def test_unreadable_entry_recorded(self, tmp_path):
        path = self.build(tmp_path, [0.5, 1.0, 2.0])
        (tmp_path / "ckpt1.mat").write_bytes(b"garbage!")
        report = sweep(load_manifest(path))
        assert len(report.records) == 2
        assert len(report.errors) == 1
        assert report.errors[0]["label"] == "step1"
        assert not report.ok

    def test_byte_identical_reports(self, tmp_path):
        path = self.build(tmp_path, [0.4, 0.9, 1.7])
        manifest = load_manifest(path)
        a = sweep(manifest)
        b = sweep(manifest)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_ablation_option(self, tmp_path):
        rng = np.random.default_rng(9)
        fm = synthetic_power_law_matrix(rng, 1.0)
        write_matrix(fm, tmp_path / "a.mat")
        doc = {
            "entries": [{"label": "x", "path": "a.mat"}],
            "options": {"center": True, "ablation": {"k": 4, "mode": "retain_top"}},
        }
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps(doc), encoding="utf-8")
        report = sweep(load_manifest(mp))
        rec = report.records[0]["ablation"]
        lam = np.arange(1, 25, dtype=float) ** -1.0
        expected = lam[:4].sum() / lam.sum()
        assert rec["retained_energy"] == pytest.approx(expected, abs=1e-8)


class TestSweepNoCenter:
    def manifest(self, tmp_path, fm):
        write_matrix(fm, tmp_path / "a.mat")
        doc = {"entries": [{"label": "x", "path": "a.mat"}],
               "options": {"center": False}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return load_manifest(path)

    def test_centred_matrix_matches_cli(self, tmp_path, capsys):
        from specgeo.cli import cli_dispatch

        fm = synthetic_power_law_matrix(np.random.default_rng(34), 1.2)
        report = sweep(self.manifest(tmp_path, fm))
        assert report.ok
        rec = report.records[0]
        path = str(tmp_path / "a.mat")
        assert cli_dispatch(["rankme", path, "--no-center", "--json"]) == 0
        assert cli_dispatch(["alphareq", path, "--no-center", "--json"]) == 0
        rank_doc, alpha_doc = map(json.loads, capsys.readouterr().out.splitlines())
        assert rec["rankme"] == rank_doc["rankme"]
        assert rec["alpha_req"] == alpha_doc["alpha_req"]
        assert rec["fit_r2"] == alpha_doc["fit_r2"]
        assert rec["fit_window"] == alpha_doc["fit_window"]

    def test_uncentred_matrix_is_an_error_record(self, tmp_path):
        fm = FeatureMatrix(np.random.default_rng(35).normal(size=(20, 4)) + 3.0)
        report = sweep(self.manifest(tmp_path, fm))
        assert report.records == []
        assert report.errors[0]["label"] == "x"
        assert "centered flag set but column" in report.errors[0]["error"]


def ablation_manifest(tmp_path, shapes, k, mode, rng):
    """Manifest of random matrices of the given shapes, all ablated."""
    entries = []
    for i, (m, d) in enumerate(shapes):
        scale = np.arange(1, d + 1, dtype=float) ** -0.7
        fm = FeatureMatrix(rng.normal(size=(m, d)) * scale)
        write_matrix(fm, tmp_path / f"{i}.mat")
        entries.append({"label": f"e{i}", "path": f"{i}.mat"})
    doc = {"entries": entries,
           "options": {"center": True, "ablation": {"k": k, "mode": mode}}}
    path = tmp_path / f"ablate_{mode}_{k}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_manifest(path)


class TestSweepAblation:
    SHAPES = [(64, 24), (20, 40)]  # the second takes the Gram path (m < d)

    @pytest.mark.parametrize("mode", ["retain_top", "remove_top"])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_matches_projected_matrix(self, tmp_path, mode, k):
        rng = np.random.default_rng(31)
        manifest = ablation_manifest(tmp_path, self.SHAPES, k, mode, rng)
        report = sweep(manifest)
        assert report.ok
        for entry, rec in zip(manifest.entries, report.records):
            fm = center_features(read_matrix(tmp_path / entry.path))
            # reference: project the matrix, then solve the projection anew
            full = covariance_spectrum(fm).values
            ablated = covariance_spectrum(ablate_spectrum(fm, k, mode))
            got = rec["ablation"]
            assert (got["k"], got["mode"]) == (k, mode)
            assert got["retained_energy"] == pytest.approx(
                ablated.values.sum() / full.sum(), rel=1e-12)
            assert got["rankme"] == pytest.approx(rankme(ablated), rel=1e-12)

    @pytest.mark.parametrize("k, mode", [(0, "retain_top"), (25, "remove_top"),
                                         (3, "keep_top")])
    def test_bad_k_or_mode_is_an_error_record(self, tmp_path, k, mode):
        rng = np.random.default_rng(32)
        manifest = ablation_manifest(tmp_path, [(64, 24), (30, 24)], k, mode, rng)
        report = sweep(manifest)
        assert report.records == []
        fm = center_features(read_matrix(tmp_path / manifest.entries[0].path))
        with pytest.raises(ValueError) as direct:
            ablate_spectrum(fm, k, mode)
        assert report.errors == [
            {"label": e.label, "error": f"ValueError: {direct.value}"}
            for e in manifest.entries
        ]

    @pytest.mark.parametrize("ablation", [None, {"k": 3, "mode": "retain_top"},
                                          {"k": 3, "mode": "remove_top"}])
    def test_one_eigensolve_per_entry(self, tmp_path, monkeypatch, ablation):
        rng = np.random.default_rng(33)
        manifest = ablation_manifest(tmp_path, [(64, 24), (20, 40), (40, 40)],
                                     3, "retain_top", rng)
        if ablation is None:
            options = SweepOptions(center=True)
        else:
            options = SweepOptions(center=True, ablation_k=ablation["k"],
                                   ablation_mode=ablation["mode"])
        manifest = RunManifest(entries=manifest.entries, options=options)
        calls = []
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        report = sweep(manifest)
        assert report.ok
        assert len(calls) == len(manifest.entries)
