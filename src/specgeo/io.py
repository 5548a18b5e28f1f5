"""File formats, run manifests, and the checkpoint sweep driver.

Matrix file layout (little-endian throughout):

    offset  size  field
    0       8     magic, ASCII "SPECGEO1"
    8       1     dtype code: 1 = float32, 2 = float64
    9       8     rows, unsigned 64-bit
    17      8     cols, unsigned 64-bit
    25      ...   payload, rows*cols values in row-major order

float64 is the canonical dtype; float32 payloads are widened exactly on
read.  The payload length must match the header exactly, so truncated
and padded files are both rejected.

A run manifest is a JSON file listing labelled matrix files (typically
training checkpoints) plus processing options; ``sweep`` turns it into a
metrics report, continuing past per-entry failures so one bad checkpoint
does not sink a long run.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import (_DATA_ERRORS, _MATRIX_MAGIC, __version__, _csv_text, _decode_text,
               _json_text, _naming)
from .spectral import (
    EigenSpectrum,
    FeatureMatrix,
    _center_in_place,
    _check_ablation,
    _check_window,
    _metrics_of_spectrum,
    covariance_spectrum,
    rankme,
)

__all__ = [
    "MAGIC",
    "MatrixFormatError",
    "BadMagicError",
    "BadDtypeError",
    "SizeMismatchError",
    "read_matrix",
    "write_matrix",
    "RunManifest",
    "ManifestEntry",
    "SweepOptions",
    "MetricsReport",
    "load_manifest",
    "sweep",
]

MAGIC = _MATRIX_MAGIC
_HEADER = struct.Struct(f"<{len(MAGIC)}sBQQ")
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_DTYPE_CODES = {"f32": 1, "f64": 2}
_WIDEN_CHUNK = 1 << 16  # float32 values widened at a time


class MatrixFormatError(ValueError):
    """Base class for matrix-file format violations."""


class BadMagicError(MatrixFormatError):
    pass


class BadDtypeError(MatrixFormatError):
    pass


class SizeMismatchError(MatrixFormatError):
    pass


def write_matrix(f: FeatureMatrix, path, dtype: str = "f64") -> None:
    """Write a feature matrix; float64 round-trips bit-exactly."""
    if dtype not in _DTYPE_CODES:
        raise BadDtypeError(f"dtype must be f32 or f64, got {dtype!r}")
    code = _DTYPE_CODES[dtype]
    data = np.ascontiguousarray(f.data, dtype=_DTYPES[code])
    header = _HEADER.pack(MAGIC, code, f.m, f.d)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)  # the array's own buffer, no bytes copy


def read_matrix(path) -> FeatureMatrix:
    """Read a matrix file, widening float32 payloads to float64 exactly."""
    with open(path, "rb") as fh:
        return FeatureMatrix(_read_payload(fh))


def _read_payload(fh, digest=None, head=b"") -> np.ndarray:
    """The float64 matrix in the matrix file open as the binary stream
    ``fh``, whose first bytes ``head`` the caller may have read already;
    see the module docstring.

    A regular file's size is checked against the header before anything
    is allocated.  The payload is read into the one float64 array returned,
    and fed with the header to ``digest`` (a hashlib object) if one is
    given.  A float32 payload of n values fills the array's back half and
    is widened front to back in chunks: a chunk ending at value j <= n
    writes below byte 8j <= 4n + 4j, where the values still to be read
    start, and numpy buffers the overlap within a chunk.
    """
    header = head + fh.read(_HEADER.size - len(head))
    if len(header) < _HEADER.size:
        raise SizeMismatchError(f"file is shorter than the {_HEADER.size}-byte header")
    magic, code, rows, cols = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if code not in _DTYPES:
        raise BadDtypeError(f"unknown dtype code {code}")
    dtype, n = _DTYPES[code], rows * cols
    expected = n * dtype.itemsize
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode) and st.st_size - _HEADER.size != expected:
        raise _size_mismatch(st.st_size - _HEADER.size, expected)
    wide = np.empty(n, dtype=np.float64)
    raw = wide.view(dtype)[-n:]  # all of it, or a float32 payload's back half
    got = fh.readinto(raw)  # reads until the array is full or the file ends
    # a pipe's length is known only once it is drained
    got += len(fh.read())
    if got != expected:
        raise _size_mismatch(got, expected)
    if digest is not None:
        digest.update(header)
        digest.update(raw)
    if raw.dtype != wide.dtype:
        for i in range(0, n, _WIDEN_CHUNK):
            wide[i:i + _WIDEN_CHUNK] = raw[i:i + _WIDEN_CHUNK]
    return wide.reshape(rows, cols)


def _size_mismatch(payload: int, expected: int) -> SizeMismatchError:
    return SizeMismatchError(
        f"payload is {payload} bytes, header implies {expected}")


def _read_features(path, center: bool, digest=None) -> FeatureMatrix:
    """Read a matrix file and centre its columns in place; with ``center``
    false take the data as already centred, which FeatureMatrix checks."""
    with open(path, "rb") as fh:
        data = _read_payload(fh, digest)  # a buffer of ours alone
    return _center_in_place(data) if center else FeatureMatrix(data, centered=True)


@dataclass(frozen=True)
class ManifestEntry:
    label: str
    path: str


@dataclass(frozen=True)
class SweepOptions:
    """How ``sweep`` treats each entry.  A value that no matrix allows (an
    ablation ``mode`` or ``k`` below 1, a window whose ``lo`` is below 1 or
    above its ``hi``, or that holds fewer than 3 ranks) is refused here,
    before any entry is read; the width rules (k and the window's ``hi`` at
    most d) wait for each entry's d."""

    center: bool = True
    alpha_window: Optional[tuple[int, int]] = None
    ablation_k: Optional[int] = None
    ablation_mode: str = "retain_top"

    def __post_init__(self):
        if self.alpha_window is not None:
            _check_window(self.alpha_window)
        if self.ablation_k is not None:
            _check_ablation(self.ablation_k, self.ablation_mode)


@dataclass(frozen=True)
class RunManifest:
    entries: tuple[ManifestEntry, ...]
    options: SweepOptions = field(default_factory=SweepOptions)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("manifest has no entries")
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("manifest labels must be unique")


def load_manifest(path) -> RunManifest:
    """Parse a JSON manifest and verify every listed file exists.

    A manifest that breaks the schema of ``_parse_manifest`` or a rule of
    ``SweepOptions``, nests deeper than the JSON decoder can follow or
    lists a missing file raises ValueError naming it, before any entry is
    read.  A relative entry path is resolved against the manifest's
    directory and stored resolved; an absolute one is kept as it is.
    """
    with _naming(path):
        try:
            doc = json.loads(_decode_text(Path(path).read_bytes())[0])
        except RecursionError as exc:
            raise ValueError(str(exc)) from None
        manifest = _parse_manifest(doc, Path(path).parent)
        for entry in manifest.entries:
            if not Path(entry.path).exists():
                raise ValueError(f"manifest entry {entry.label!r}: missing {entry.path}")
    return manifest


def _parse_manifest(doc, base: Path) -> RunManifest:
    """The manifest ``doc`` (parsed JSON): an object of a list ``entries``,
    each an object of a string ``label`` and a string ``path``, and an
    optional object ``options`` of a boolean ``center``, two integers
    ``alpha_window`` and an object ``ablation`` of an integer ``k`` and an
    optional string ``mode``.  Options left out take the defaults of
    ``SweepOptions``; unknown keys are errors, and so is null in place of
    any value."""
    doc = _fields(doc, "manifest", ("entries",), ("options",))
    entries = []
    for i, entry in enumerate(_typed(doc["entries"], list, "manifest.entries")):
        where = f"manifest.entries[{i}]"
        entry = _fields(entry, where, ("label", "path"))
        label, path = (_typed(entry[key], str, f"{where}.{key}")
                       for key in ("label", "path"))
        entries.append(ManifestEntry(label=label, path=str(base / path)))
    opts = _fields(doc.get("options", {}), "manifest.options", (),
                   ("center", "alpha_window", "ablation"))
    options = {}
    if "center" in opts:
        options["center"] = _typed(opts["center"], bool, "manifest.options.center")
    if "alpha_window" in opts:
        where = "manifest.options.alpha_window"
        window = _typed(opts["alpha_window"], list, where)
        if len(window) != 2:
            raise ValueError(f"{where} must hold 2 integers, got {len(window)}")
        options["alpha_window"] = tuple(
            _typed(v, int, f"{where}[{i}]") for i, v in enumerate(window))
    if "ablation" in opts:
        where = "manifest.options.ablation"
        ablation = _fields(opts["ablation"], where, ("k",), ("mode",))
        options["ablation_k"] = _typed(ablation["k"], int, f"{where}.k")
        if "mode" in ablation:
            options["ablation_mode"] = _typed(ablation["mode"], str, f"{where}.mode")
    with _naming("manifest.options"):
        options = SweepOptions(**options)
    return RunManifest(entries=tuple(entries), options=options)


def _fields(value, where: str, required: tuple, optional: tuple = ()) -> dict:
    """``value`` as a JSON object holding every ``required`` key and no key
    outside ``required`` and ``optional``."""
    value = _typed(value, dict, where)
    unknown = sorted(set(value) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{where} has unknown key {unknown[0]!r}; known keys: "
                         f"{', '.join(required + optional)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{where} has no {missing[0]!r}")
    return value


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string",
               bool: "a boolean", int: "an integer", float: "a number",
               type(None): "null"}


def _typed(value, kind: type, where: str):
    """``value`` if it is of JSON type ``kind``; true is not an integer."""
    if type(value) is not kind:
        raise ValueError(
            f"{where} must be {_JSON_KINDS[kind]}, got {_JSON_KINDS[type(value)]}")
    return value


@dataclass
class MetricsReport:
    """Per-label metric records plus provenance; deterministic ordering."""

    records: list
    errors: list

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_json(self) -> str:
        doc = {
            "toolkit_version": __version__,
            "records": self.records,
            "errors": self.errors,
        }
        return _json_text(doc)

    def to_csv(self) -> str:
        rows = [(r["label"], r["rankme"], r["alpha_req"], r["fit_r2"], *r["fit_window"],
                 r["m"], r["d"], r["sha256"]) for r in self.records]
        return _csv_text(("label", "rankme", "alpha_req", "fit_r2", "fit_window_lo",
                          "fit_window_hi", "m", "d", "sha256"), list(zip(*rows)))


def _sweep_entry(entry: ManifestEntry, options: SweepOptions) -> dict:
    digest = hashlib.sha256()
    fm = _read_features(entry.path, options.center, digest)
    k, mode = options.ablation_k, options.ablation_mode
    if options.alpha_window is not None:  # the width rules, before the solve
        _check_window(options.alpha_window, fm.d)
    if k is not None:
        _check_ablation(k, mode, fm.d)
    spec = covariance_spectrum(fm)
    metrics = _metrics_of_spectrum(spec, fm.m, options.alpha_window)
    record = {"label": entry.label, "sha256": digest.hexdigest(),
              **metrics.to_record()}
    if k is not None:
        # projecting onto or off the top-k eigenvectors keeps exactly
        # those eigenpairs, so the ablated spectrum is a slice of this one
        kept = spec.values[:k] if mode == "retain_top" else spec.values[k:]
        total = float(spec.values.sum())  # > 0, or the metrics above raised
        record["ablation"] = {
            "k": k,
            "mode": mode,
            "retained_energy": float(kept.sum()) / total,
            "rankme": rankme(EigenSpectrum(values=kept)) if kept.sum() > 0 else None,
        }
    return record


def sweep(manifest: RunManifest) -> MetricsReport:
    """Compute spectral metrics for every manifest entry.

    Entries run one at a time in manifest order (BLAS parallelises each
    eigensolve), so output bytes are fixed.  An entry that fails with an
    error of its data (the errors the CLI reports) becomes an error record
    and processing continues; any other error is a bug and propagates.
    """
    records, errors = [], []
    for entry in manifest.entries:
        try:
            records.append(_sweep_entry(entry, manifest.options))
        except _DATA_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
            errors.append({"label": entry.label, "error": error})
    return MetricsReport(records=records, errors=errors)
