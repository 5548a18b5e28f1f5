"""specgeo: spectral geometry of learned representations.

Covariance eigenspectrum metrics (effective rank, power-law decay),
eigenvector ablation, suffix-array infinity-gram language modeling with
distributional-memorization scoring, gradient-descent dynamics of a
linear bottleneck classifier, and sampling-evaluation estimators
(pass@k, preference-loss identities).

The public names below load their tool module on first use (PEP 562), so
``import specgeo`` and each CLI subcommand pay only for the modules they
touch.
"""

import importlib
from contextlib import contextmanager
from io import StringIO  # a plain ``import io`` would be shadowed by specgeo.io
from pathlib import Path

__version__ = "0.1.0"

# The public names of each tool module, listed here only: each module's
# ``__all__`` is read from this table.
_EXPORTS = {
    "spectral": (
        "EigenSpectrum",
        "FeatureMatrix",
        "SpectralMetrics",
        "ablate_spectrum",
        "alpha_req",
        "center_features",
        "covariance_spectrum",
        "rankme",
        "spectral_metrics",
    ),
    "ngram": (
        "NgramPrediction",
        "ProbTrace",
        "SuffixIndex",
        "TokenCorpus",
        "build_index",
        "distributional_memorization",
        "infty_gram_next",
        "joint_loglik",
        "pattern_count",
        "spearman_rho",
    ),
    "evalmetrics": (
        "PreferenceTriple",
        "dpo_loss",
        "dpo_nce_identity",
        "pass_at_k",
        "pass_at_k_exact",
        "pass_at_k_single",
    ),
    "dynamics": (
        "DivergenceError",
        "ToyConfig",
        "ToyModelState",
        "TrajectoryRecord",
        "check_conservation",
        "check_growth_law",
        "gd_step",
        "init_balanced",
        "phase_summary",
        "primacy_selection_probe",
        "run_trajectory",
        "softmax_alpha",
        "target_matrix",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


# The first bytes of a matrix file (see specgeo.io): the corpus reader
# tells a matrix from text by them without loading specgeo.io.
_MATRIX_MAGIC = b"SPECGEO1"

# Errors of a run's data or inputs, a failed allocation among them: the CLI
# reports one as a single error line with exit code 1, a sweep as an error record.
_DATA_ERRORS = (ValueError, OverflowError, OSError, RuntimeError, MemoryError)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})


@contextmanager
def _naming(name):
    """Start the message of a ValueError or MemoryError raised in the block
    with ``name``, a path, line, key or flag: the one place an error comes
    to name its source.  An OSError's text names its path already."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        NamedError = MemoryError if isinstance(exc, MemoryError) else ValueError
        raise NamedError(f"{name}: {exc}") from None


def _decode_text(data: bytes, newline=None) -> tuple[str, list[str]]:
    """The text of a UTF-8 file's bytes ``data`` less one leading byte-order
    mark, and its lines as ``open(path, newline=newline)`` splits them.  A
    byte that is not UTF-8 is an error giving its line and file offset;
    call this inside ``_naming(path)``."""
    try:
        text = data.decode("utf-8")  # a mark decodes, so offsets are the file's
    except UnicodeDecodeError as exc:
        head = StringIO(data[: exc.start].decode("utf-8") + ".", newline=newline)
        with _naming(f"line {len(head.readlines())}"):
            raise
    text = text.removeprefix("\ufeff")
    return text, StringIO(text, newline=newline).readlines()


def _json_text(doc, indent=2) -> str:
    """``doc`` as JSON with sorted keys: a document (``report.json``,
    ``summary.json``) indented, a ``--json`` payload on one line.  A JSON
    number is finite, so a NaN or infinite float is a ValueError: a value
    that does not exist is ``None``, written ``null``."""
    import json  # on first use, so that ``import specgeo`` stays light

    return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)


def _csv_text(names, columns) -> str:
    """CSV of header ``names`` and one newline-ended row per entry of the
    sequences ``columns``, each formatted in one pass: Python numbers by
    ``repr``; strings as they are, or quoted with quotes doubled if they
    hold a comma, a quote, CR or LF."""
    cells = [map(_csv_field if col and isinstance(col[0], str) else repr, col)
             for col in columns]
    return "\n".join([",".join(names), *map(",".join, zip(*cells)), ""])


def _csv_field(text: str) -> str:
    quote = any(c in text for c in ',"\r\n')  # one field, as CSV readers see it
    return '"' + text.replace('"', '""') + '"' if quote else text


def _write_files(outdir, texts: dict) -> Path:
    """Write each ``name: text`` as a UTF-8 file in ``outdir`` (made if missing);
    return the directory's path."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (outdir / name).write_text(text, encoding="utf-8")
    return outdir
