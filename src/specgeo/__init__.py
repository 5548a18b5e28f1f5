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


# Errors of a run's data or inputs: the CLI reports one as a single error
# line with exit code 1, and a sweep records one per failed entry.
_DATA_ERRORS = (ValueError, OverflowError, OSError, RuntimeError)


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
def _naming(path):
    """Start the message of a ValueError raised in the block with ``path``:
    the one place where an input file's errors come to name it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_text(path, newline=None) -> tuple[str, list[str]]:
    """The text of the UTF-8 file ``path`` less one leading byte-order mark,
    and its lines as ``open(path, newline=newline)`` splits them.  A byte
    that is not UTF-8 is an error giving its line and file offset; call
    this inside ``_naming(path)``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")  # a mark decodes, so offsets are the file's
    except UnicodeDecodeError as exc:
        head = StringIO(data[: exc.start].decode("utf-8") + ".", newline=newline)
        raise ValueError(f"line {len(head.readlines())}: {exc}") from None
    text = text.removeprefix("\ufeff")
    return text, StringIO(text, newline=newline).readlines()
