"""Matrix file format, manifests, and the sweep driver."""

import contextlib
import hashlib
import json
import os
import struct
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import specgeo.io as sio
from specgeo.io import (
    MAGIC,
    BadDtypeError,
    BadMagicError,
    ManifestEntry,
    MatrixFormatError,
    MetricsReport,
    RunManifest,
    SizeMismatchError,
    SweepOptions,
    _sweep_entry,
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

from oracles import read_features_bytes


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

    @pytest.mark.parametrize("chunk", [1, 3, 4, 7, 1 << 16])
    def test_f32_widened_in_place_by_chunks(self, tmp_path, monkeypatch, chunk):
        """A float32 payload is widened in the back half of its float64
        buffer; every chunk size, down to one value, gives astype's bytes."""
        monkeypatch.setattr(sio, "_WIDEN_CHUNK", chunk)
        rng = np.random.default_rng(44)
        for rows, cols in [(0, 3), (1, 1), (2, 5), (7, 13)]:
            data = rng.standard_normal((rows, cols)).astype(np.float32)
            path = tmp_path / "m32.mat"
            path.write_bytes(struct.pack("<8sBQQ", MAGIC, 1, rows, cols) + data.tobytes())
            with open(path, "rb") as fh:
                got = sio._read_payload(fh)
            assert got.dtype == np.float64 and got.shape == (rows, cols)
            assert got.tobytes() == data.astype(np.float64).tobytes()

    def test_f32_read_holds_one_matrix(self, tmp_path):
        """The float32 payload is read into the float64 buffer it is widened
        in, so a 4096 x 768 read peaks at that buffer (24 MiB), not at both
        arrays (36 MiB), and the digest is the file's."""
        data = np.random.default_rng(45).standard_normal((4096, 768)).astype(np.float32)
        path = tmp_path / "m32.mat"
        write_matrix(FeatureMatrix(data), path, dtype="f32")
        digest = hashlib.sha256()
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                got = sio._read_payload(fh, digest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24.5 * 2**20
        assert got.tobytes() == data.astype(np.float64).tobytes()
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("dtype, code", [("f32", 1), ("f64", 2)])
    @pytest.mark.parametrize("layout", ["c", "fortran", "big-endian", "strided"])
    def test_written_bytes(self, tmp_path, dtype, code, layout):
        # the header, then the little-endian row-major payload, whatever
        # the layout of the array in memory
        data = np.random.default_rng(2).normal(size=(6, 4))
        data = {"c": data, "fortran": np.asfortranarray(data),
                "big-endian": data.astype(">f8"),
                "strided": np.repeat(data, 2, axis=1)[:, ::2]}[layout]
        path = tmp_path / "m.mat"
        write_matrix(FeatureMatrix(data), path, dtype)
        payload = np.asarray(data, dtype="<f4" if code == 1 else "<f8")
        assert path.read_bytes() == (struct.pack("<8sBQQ", MAGIC, code, 6, 4)
                                     + payload.tobytes(order="C"))

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
        with pytest.raises(BadDtypeError, match="dtype must be f32 or f64, got 'f16'"):
            write_matrix(random_matrix(rng), tmp_path / "w.mat", dtype="f16")
        assert not (tmp_path / "w.mat").exists()

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

    def test_huge_row_count_is_a_size_mismatch(self, tmp_path):
        # checked against the file size before anything is allocated
        path = tmp_path / "huge.mat"
        path.write_bytes(struct.pack("<8sBQQ", MAGIC, 2, 2**60, 2) + bytes(48))
        with pytest.raises(SizeMismatchError) as exc:
            read_matrix(path)
        assert str(exc.value) == f"payload is 48 bytes, header implies {2**64}"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("cut", [0, -8, 8], ids=["whole", "truncated", "padded"])
    def test_reads_a_pipe(self, tmp_path, cut):
        """A pipe has no size to check first; its length is checked once read.
        The second payload, 720 kB, outgrows a pipe's buffer and arrives in
        delayed writes, so no single read of the pipe returns all of it."""
        rng = np.random.default_rng(38)
        for rows, cols, dtype, chunk in [(5, 3, "f32", 1 << 20), (300, 300, "f64", 70_000)]:
            path = tmp_path / f"m{rows}.mat"
            write_matrix(random_matrix(rng, rows, cols), path, dtype=dtype)
            raw = path.read_bytes()
            raw = raw[:cut] if cut < 0 else raw + bytes(cut)
            path.write_bytes(raw)
            fifo = tmp_path / f"m{rows}.fifo"
            os.mkfifo(fifo)
            writer = threading.Thread(target=_feed, args=(fifo, raw, chunk), daemon=True)
            writer.start()
            try:
                if cut == 0:
                    got = read_matrix(fifo).data
                    assert got.tobytes() == read_matrix(path).data.tobytes()
                else:
                    with pytest.raises(SizeMismatchError) as piped:
                        read_matrix(fifo)
                    with pytest.raises(SizeMismatchError) as regular:
                        read_matrix(path)
                    assert str(piped.value) == str(regular.value)
            finally:
                writer.join(timeout=10)
            assert not writer.is_alive()


def _feed(fifo, data: bytes, chunk: int) -> None:
    """Write ``data`` to the pipe ``fifo`` ``chunk`` bytes at a time, with a
    pause after each write, until its reader closes it."""
    with contextlib.suppress(BrokenPipeError), open(fifo, "wb", buffering=0) as fh:
        for start in range(0, len(data), chunk):
            fh.write(data[start : start + chunk])
            time.sleep(0.02)


def _reference_reader(path, center, digest):
    fm, raw = read_features_bytes(path, center)
    digest.update(raw)
    return fm


class TestReader:
    """The one reader behind read_matrix, the sweep and the CLI."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_sweep_sha256_is_the_file_digest(self, tmp_path, dtype):
        path = tmp_path / "a.mat"
        write_matrix(random_matrix(np.random.default_rng(37), 50, 7), path, dtype)
        record = _sweep_entry(ManifestEntry("a", str(path)), SweepOptions())
        assert record["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("options", [
        SweepOptions(),
        SweepOptions(ablation_k=5),
        SweepOptions(alpha_window=(2, 15), ablation_k=5, ablation_mode="remove_top"),
        SweepOptions(center=False),
    ], ids=["plain", "retain_top", "remove_top", "no_center"])
    def test_reports_equal_reference_route(self, tmp_path, monkeypatch, options):
        rng = np.random.default_rng(39)
        matrices = [synthetic_power_law_matrix(rng, 0.8),
                    center_features(FeatureMatrix(rng.normal(size=(20, 40)))),
                    FeatureMatrix(rng.normal(size=(30, 24)) + 2.0)]
        entries = []
        for i, (fm, dtype) in enumerate(zip(matrices, ["f64", "f64", "f32"])):
            write_matrix(fm, tmp_path / f"{i}.mat", dtype)
            entries.append(ManifestEntry(f"e{i}", str(tmp_path / f"{i}.mat")))
        (tmp_path / "bad.mat").write_bytes(MAGIC + bytes(20))
        entries.append(ManifestEntry("bad", str(tmp_path / "bad.mat")))
        manifest = RunManifest(entries=tuple(entries), options=options)
        got = sweep(manifest)
        monkeypatch.setattr(sio, "_read_features", _reference_reader)
        want = sweep(manifest)
        assert len(want.records) == (3 if options.center else 2)
        assert got.to_json() == want.to_json()
        assert got.to_csv() == want.to_csv()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_center_features_equals_the_sweeps_buffer(self, tmp_path, dtype):
        # one centring routine: run on a copy, and on the sweep's own buffer
        path = tmp_path / "a.mat"
        data = np.random.default_rng(41).normal(3.0, 2.0, size=(40, 9))
        write_matrix(FeatureMatrix(data), path, dtype)
        assert np.array_equal(center_features(read_matrix(path)).data,
                              sio._read_features(path, True).data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_file_rejected_by_both_routes(self, tmp_path, bad):
        data = np.random.default_rng(42).normal(size=(10, 4))
        data[3, 1] = bad
        path = tmp_path / "a.mat"
        write_matrix(FeatureMatrix(data), path)
        error = "feature matrix contains non-finite entries"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither route warns on the way
            with pytest.raises(ValueError, match=error):
                covariance_spectrum(center_features(read_matrix(path)))
            report = sweep(RunManifest(entries=(ManifestEntry("a", str(path)),)))
        assert report.errors == [{"label": "a", "error": f"ValueError: {error}"}]

    @pytest.mark.parametrize("dtype, bound, center", [
        pytest.param("f32", 1.1, True, id="f32-1.1"),
        pytest.param("f64", 1.1, True, id="f64-1.1"),
        pytest.param("f32", 1.1, False, id="f32-1.1-no_center"),
        pytest.param("f64", 1.1, False, id="f64-1.1-no_center"),
    ])
    def test_sweep_entry_peak_memory(self, tmp_path, dtype, bound, center):
        """tracemalloc sees numpy's buffers.  At most the file's own array
        and one float64 matrix are alive at once, also while data declared
        centred is checked; the matrix is tall, so the d x d covariance
        stays small beside them."""
        m, d = 8192, 32
        # whole numbers and their negations: column means exactly 0 in f32
        half = np.random.default_rng(40).integers(-99, 100, size=(m // 2, d))
        path = tmp_path / "a.mat"
        write_matrix(FeatureMatrix(np.vstack([half, -half])), path, dtype)
        entry = ManifestEntry("a", str(path))
        options = SweepOptions(center=center, ablation_k=4)
        _sweep_entry(entry, options)  # first calls finish lazy set-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _sweep_entry(entry, options)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound * m * d * 8


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
        with pytest.raises(ValueError) as caught:
            load_manifest(path)
        assert str(caught.value) == (
            f"{path}: manifest entry 'x': missing {tmp_path / 'nope.mat'}")

    def test_empty_rejected(self, tmp_path):
        path = self.write_manifest(tmp_path, [])
        with pytest.raises(ValueError):
            load_manifest(path)

    def test_unparsable_manifest_names_its_path(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"entries": [', encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}: Expecting value: line 1 column 14 (char 13)"

    def test_every_option_parsed(self, tmp_path):
        write_matrix(random_matrix(np.random.default_rng(7)), tmp_path / "a.mat")
        path = self.write_manifest(
            tmp_path, [{"label": "x", "path": "a.mat"}],
            {"center": False, "alpha_window": [2, 5],
             "ablation": {"k": 3, "mode": "remove_top"}})
        assert load_manifest(path).options == SweepOptions(
            center=False, alpha_window=(2, 5), ablation_k=3,
            ablation_mode="remove_top")
        path = self.write_manifest(tmp_path, [{"label": "x", "path": "a.mat"}],
                                   {"ablation": {"k": 3}})
        assert load_manifest(path).options == SweepOptions(ablation_k=3)
        path = self.write_manifest(tmp_path, [{"label": "x", "path": "a.mat"}])
        assert load_manifest(path).options == SweepOptions()

    def test_fractional_window_refused(self):
        with pytest.raises(ValueError, match=r"window \(1.5, 4.7\) ranks must be whole"):
            SweepOptions(alpha_window=(1.5, 4.7))
        assert SweepOptions(alpha_window=(2.0, 5.0)).alpha_window == (2.0, 5.0)
        # too large for a float, but whole: the width rule refuses it per entry
        assert SweepOptions(alpha_window=(1, 10**400)).alpha_window[1] == 10**400

    @pytest.mark.parametrize("options, error", [
        ({"ablation": {"k": 0}}, "k must be in [1, d], got 0"),
        ({"ablation": {"k": 3, "mode": "keep_top"}},
         "mode must be retain_top or remove_top, got 'keep_top'"),
        ({"alpha_window": [5, 2]}, "window (5, 2) out of range for any d"),
        ({"alpha_window": [0, 5]}, "window (0, 5) out of range for any d"),
        ({"alpha_window": [2, 3]}, "window (2, 3) holds 2 ranks; a power-law fit needs 3"),
    ], ids=["ablation-k-0", "ablation-mode", "window-reversed", "window-from-0",
            "window-narrow"])
    def test_option_no_matrix_allows_is_refused_at_load(self, tmp_path, monkeypatch,
                                                        capsys, options, error):
        """Before any entry is read: ``load_manifest`` raises, naming the
        manifest, and ``sweep`` exits 1 with one error line and no report."""
        from specgeo.cli import cli_dispatch

        write_matrix(random_matrix(np.random.default_rng(7)), tmp_path / "a.mat")
        path = self.write_manifest(tmp_path, [{"label": "x", "path": "a.mat"}], options)
        reads = []
        monkeypatch.setattr(sio, "_read_features", lambda *args: reads.append(args))
        with pytest.raises(ValueError) as caught:
            load_manifest(path)
        assert str(caught.value) == f"{path}: manifest.options: {error}"
        out = tmp_path / "out"
        assert cli_dispatch(["sweep", "--manifest", str(path), "-o", str(out)]) == 1
        assert capsys.readouterr() == ("", f"specgeo: error: {caught.value}\n")
        assert reads == [] and not out.exists()


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

    def test_memory_error_is_an_error_record(self, tmp_path, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB")

        manifest = load_manifest(self.build(tmp_path, [0.5, 1.0]))
        monkeypatch.setattr(sio, "covariance_spectrum", no_memory)
        report = sweep(manifest)
        assert report.records == []
        assert report.errors == [{"label": f"step{i}", "error": "MemoryError: "
                                  "Unable to allocate 7.11 PiB"} for i in range(2)]

    def test_alpha_recovery(self, tmp_path):
        path = self.build(tmp_path, [0.5, 1.0, 2.0])
        report = sweep(load_manifest(path))
        assert report.ok
        got = [rec["alpha_req"] for rec in report.records]
        np.testing.assert_allclose(got, [0.5, 1.0, 2.0], atol=1e-6)

    def test_bug_in_an_entry_propagates(self, tmp_path, monkeypatch):
        # an error of the data becomes an error record; any other is a bug
        def broken(fm, want_vectors=False):
            raise TypeError("broken solve")

        path = self.build(tmp_path, [1.0])
        monkeypatch.setattr(sio, "covariance_spectrum", broken)
        with pytest.raises(TypeError, match="broken solve"):
            sweep(load_manifest(path))

    def test_unreadable_entry_recorded(self, tmp_path):
        path = self.build(tmp_path, [0.5, 1.0, 2.0])
        (tmp_path / "ckpt1.mat").write_bytes(b"garbage!")
        report = sweep(load_manifest(path))
        assert len(report.records) == 2
        assert len(report.errors) == 1
        assert report.errors[0]["label"] == "step1"
        assert not report.ok

    @pytest.mark.parametrize("label", ["step,1000", 'say "hi"', "a\rb", "a\nb",
                                       "plain label"])
    def test_csv_label_round_trips(self, tmp_path, label):
        import csv
        import io

        record = sweep(load_manifest(self.build(tmp_path, [1.0]))).records[0]

        def to_csv(label):
            return MetricsReport(records=[{**record, "label": label}],
                                 errors=[]).to_csv()

        header, row = to_csv("x").splitlines()
        text = to_csv(label)
        assert list(csv.reader(io.StringIO(text, newline=""))) == [
            header.split(","), [label, *row.split(",")[1:]]]
        if label == "plain label":  # quoted only when it must be
            assert text == f"{header}\n{label}{row[1:]}\n"

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


def large_mean_matrix():
    """4096 rows whose column 0 is 1e6 + 1e-6 N(0, 1): once centred, the
    column keeps a round-off mean far above the centred-flag check's
    tolerance for its tiny spread."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(4096, 8))
    data[:, 0] = 1e6 + 1e-6 * rng.normal(size=4096)
    return data


class TestSelfCentredData:
    def test_center_features_accepts_its_output(self):
        data = large_mean_matrix()
        out = center_features(FeatureMatrix(data))
        assert out.centered
        assert out.data.tobytes() == (data - data.mean(axis=0)).tobytes()
        with pytest.raises(ValueError, match="centered flag set but column 0"):
            FeatureMatrix(out.data, centered=True)  # a caller's data is checked

    def test_cli_and_sweep_accept_it(self, tmp_path, capsys):
        from specgeo.cli import cli_dispatch

        data = large_mean_matrix()
        path = tmp_path / "a.mat"
        write_matrix(FeatureMatrix(data), path)
        want = rankme(covariance_spectrum(center_features(FeatureMatrix(data))))
        assert cli_dispatch(["rankme", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"rankme": want}
        assert cli_dispatch(["ablate", str(path), "-k", "2", "--mode", "remove_top",
                             "-o", str(tmp_path / "b.mat")]) == 0
        doc = {"entries": [{"label": "x", "path": "a.mat"}],
               "options": {"ablation": {"k": 2, "mode": "remove_top"}}}
        (tmp_path / "m.json").write_text(json.dumps(doc), encoding="utf-8")
        report = sweep(load_manifest(tmp_path / "m.json"))
        assert report.ok
        assert report.records[0]["rankme"] == want


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

    # a k below 1 or a bad mode is refused at load (TestManifest); a k above
    # the entry's d is an error of that entry
    @pytest.mark.parametrize("k, mode", [(25, "remove_top")])
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

    # the last two are too wide for the first entry's d = 24
    @pytest.mark.parametrize("options, error", [
        ({}, None), ({"ablation_k": 3}, None),
        ({"ablation_k": 3, "ablation_mode": "remove_top"}, None),
        ({"ablation_k": 30}, "k must be in [1, 24], got 30"),
        ({"alpha_window": (2, 30)}, "window (2, 30) out of range for d=24"),
    ], ids=["None", "ablation1", "ablation2", "k-above-d", "window-above-d"])
    def test_one_eigensolve_per_entry(self, tmp_path, monkeypatch, options, error):
        """Each valid entry is solved once; an entry narrower than an option
        is an error record before its solve."""
        rng = np.random.default_rng(33)
        manifest = ablation_manifest(tmp_path, [(64, 24), (20, 40), (40, 40)],
                                     3, "retain_top", rng)
        manifest = RunManifest(entries=manifest.entries,
                               options=SweepOptions(center=True, **options))
        narrow = [] if error is None else [{"label": "e0", "error": f"ValueError: {error}"}]
        calls = []
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        report = sweep(manifest)
        assert report.errors == narrow
        assert len(report.records) == len(calls) == len(manifest.entries) - len(narrow)
