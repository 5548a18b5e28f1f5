"""Umbrella command-line interface.

One subcommand per toolkit operation; ``--json`` switches the summary
output to machine-readable JSON on stdout.  Exit codes: 0 success, 1
computation error (bad data, divergence, format violations), 2 usage
error (unknown flags, malformed invocations).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from itertools import zip_longest

import numpy as np

from . import (_DATA_ERRORS, __version__, _csv_text, _json_text, _naming, _read_text,
               _write_files)

# Each handler imports the tool modules it uses, so a child process loads
# only what its subcommand needs.

COMPUTE_ERROR = 1


def _emit(args, payload: dict, text) -> None:
    """Print ``payload`` as JSON under --json, else ``text``: a string, or
    a function returning one when the text is costly to build."""
    if args.json:
        print(_json_text(payload, indent=None))
    else:
        print(text() if callable(text) else text)


# ---------------------------------------------------------------- spectral

def _features(path, center: bool):
    """The matrix file ``path`` read by ``io._read_features``."""
    from .io import _read_features

    with _naming(path):
        return _read_features(path, center)


def _cmd_spectrum(args) -> int:
    from .spectral import covariance_spectrum

    fm = _features(args.matrix, not args.no_center)
    spec = covariance_spectrum(fm)
    vals = spec.values.tolist()
    _emit(args, {"eigenvalues": vals, "m": fm.m, "d": fm.d},
          lambda: "\n".join(map(repr, vals)))
    return 0


def _cmd_rankme(args) -> int:
    from .spectral import covariance_spectrum, rankme

    fm = _features(args.matrix, not args.no_center)
    value = rankme(covariance_spectrum(fm))
    _emit(args, {"rankme": value}, f"rankme: {value!r}")
    return 0


def _cmd_alphareq(args) -> int:
    from .spectral import spectral_metrics

    fm = _features(args.matrix, not args.no_center)
    window = tuple(args.window) if args.window else None
    metrics = spectral_metrics(fm, window)
    alpha, r2 = metrics.alpha_req, metrics.fit_r2
    _emit(
        args,
        {"alpha_req": alpha, "fit_r2": r2, "fit_window": list(metrics.fit_window)},
        f"alpha_req: {alpha!r} (r2 {r2!r}, window {metrics.fit_window})",
    )
    return 0


def _cmd_ablate(args) -> int:
    from .io import write_matrix
    from .spectral import ablate_spectrum

    fm = _features(args.matrix, center=True)
    out = ablate_spectrum(fm, args.k, args.mode)
    write_matrix(out, args.output)
    _emit(args, {"written": str(args.output), "k": args.k, "mode": args.mode},
          f"wrote {args.output}")
    return 0


def _cmd_sweep(args) -> int:
    from .io import load_manifest, sweep

    manifest = load_manifest(args.manifest)
    report = sweep(manifest)
    outdir = _write_files(args.output, {"report.json": report.to_json(),
                                        "report.csv": report.to_csv()})
    _emit(
        args,
        {"records": len(report.records), "errors": report.errors,
         "output": str(outdir)},
        f"{len(report.records)} records, {len(report.errors)} errors -> {outdir}",
    )
    return 0 if report.ok else COMPUTE_ERROR


# ---------------------------------------------------------------- ngram

def _parse_tokens(text: str, source: str) -> np.ndarray:
    """The space-separated decimal ids of ``text``; ``source`` names it in
    the error."""
    from .ngram import _token_ids

    try:
        ids = np.array(text.split(), dtype=np.int64)
    except (ValueError, OverflowError):
        bad = next(tok for tok in text.split() if not _converts(tok, np.int64))
        raise ValueError(f"{source}: token {bad!r} is not an integer id") from None
    return _token_ids(ids, source)


def _read_corpus(path, vocab_size=None):
    """Token corpus from text (one document per line, space-separated
    decimal ids) or from a matrix file whose rows are documents, skipping
    blank lines and empty rows; SuffixIndex rejects a corpus of no tokens."""
    from .ngram import TokenCorpus, _token_ids

    with open(path, "rb") as fh:
        magic = fh.read(8)
    with _naming(path):
        if magic == b"SPECGEO1":
            from .io import _read_payload

            docs = [row for row in _token_ids(_read_payload(path), "matrix") if row.size]
        else:
            docs = [_parse_tokens(line, f"line {n}")
                    for n, line in enumerate(_read_text(path)[1], 1) if line.strip()]
        tokens = np.concatenate([np.empty(0, np.int64), *docs])
        if vocab_size is None:
            vocab_size = int(tokens.max(initial=-1)) + 1
        return TokenCorpus(tokens=tokens, vocab_size=vocab_size,
                           doc_boundaries=np.cumsum([doc.size for doc in docs]))


def _cmd_ngram_build(args) -> int:
    from .ngram import build_index

    corpus = _read_corpus(args.corpus, args.vocab_size)
    with _naming(args.corpus):
        index = build_index(corpus)
    arrays = corpus.tokens, corpus.doc_boundaries, np.int64(corpus.vocab_size), index.sa
    np.savez(args.output, **dict(zip(_INDEX_KEYS, arrays)))
    _emit(args, {"tokens": len(corpus), "vocab_size": corpus.vocab_size,
                 "output": str(args.output)},
          f"indexed {len(corpus)} tokens -> {args.output}")
    return 0


_INDEX_KEYS = ("tokens", "doc_boundaries", "vocab_size", "sa")  # in file order


def _load_index(path):
    """The index ``ngram-build`` wrote, a zip of ``.npy`` arrays; SuffixIndex
    verifies the stored suffix array against the tokens, not rebuilding it."""
    import zipfile
    import zlib

    from .ngram import SuffixIndex, TokenCorpus

    with _naming(path), open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as archive:
                missing = [key for key in _INDEX_KEYS
                           if f"{key}.npy" not in archive.namelist()]
                if missing:
                    raise ValueError(f"index file has no {missing[0]!r} array")
                tokens, bounds, vocab_size, sa = (  # read_array refuses pickles
                    np.lib.format.read_array(archive.open(f"{key}.npy"))
                    for key in _INDEX_KEYS)
        # a damaged archive: OSError is a seek out of the file, RuntimeError
        # an unsupported compression, version or encryption flag
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, zlib.error) as exc:
            raise ValueError(f"damaged index file: {exc}") from None
        corpus = TokenCorpus(tokens=tokens, doc_boundaries=bounds, vocab_size=vocab_size)
        return SuffixIndex(corpus=corpus, sa=sa)


def _cmd_ngram_query(args) -> int:
    from .ngram import infty_gram_next

    index = _load_index(args.index)
    context = _parse_tokens(args.context, "--context")
    pred = infty_gram_next(index, context)
    payload = {
        "probs": pred.token_probs.tolist(),
        "suffix_len_used": pred.suffix_len_used,
        "context_count": pred.context_count,
    }
    _emit(args, payload,
          lambda: f"suffix_len={pred.suffix_len_used} count={pred.context_count} "
                  f"probs={np.round(pred.token_probs, 6).tolist()}")
    return 0


def _converts(field: str, dtype) -> bool:
    try:
        np.array(field, dtype=dtype)
    except (ValueError, OverflowError):
        return False
    return True


_BLANK = " \t\n\r\x0b\x0c,"  # ASCII whitespace and the delimiter


def _plain(text: str) -> bool:
    """Text in which each line is one row whose fields split at the commas,
    and which numpy's C parser reads as the per-field conversion does:
    ASCII with no quote (a quoted field may span lines) and none of the
    separators \x1c-\x1f (the parser takes them for spaces; the conversion
    rejects them)."""
    return text.isascii() and not any(c in text for c in '"\x1c\x1d\x1e\x1f')


def _read_columns(path, dtypes) -> tuple[list, list]:
    """The leading ``len(dtypes)`` columns of the CSV file ``path``, each
    converted once to an array of its dtype, and the line of each data row.

    Blank rows are skipped.  The first non-blank row is a header only if
    none of its numeric fields parses as a number; any other short or
    unconvertible row, or a file without data rows, is an error.

    Plain text (see ``_plain``) is converted by one ``np.loadtxt``
    call; other text, or text that call rejects, is split by ``csv`` and
    converted field by field, which also finds the line of a bad row.
    """
    with _naming(path):
        text, lines = _read_text(path, newline="")
        plain = _plain(text)
        if plain:
            numbers = [n for n, line in enumerate(lines, 1) if line.strip(_BLANK)]
            rows = [lines[n - 1] for n in numbers]
        else:
            reader = csv.reader(lines)
            rows, numbers = [], []
            try:
                for row in reader:
                    if "".join(row).strip():
                        rows.append(row)
                        numbers.append(reader.line_num)
            except csv.Error as exc:  # a field longer than csv's limit
                raise ValueError(f"line {reader.line_num}: {exc}") from None
        if rows:
            first = rows[0].rstrip("\r\n").split(",") if plain else rows[0]
            if not any(_converts(field, np.float64) for field, dtype
                       in zip(first, dtypes) if dtype is not str):
                del rows[0], numbers[0]
        if not rows:
            raise ValueError("no data rows")
        if plain:
            try:
                table = np.loadtxt(
                    rows, delimiter=",", comments=None, ndmin=1,
                    usecols=range(len(dtypes)),
                    dtype=[(f"f{i}", object if dtype is str else dtype)
                           for i, dtype in enumerate(dtypes)])
            except ValueError:  # a bad row, or a number only Python reads ("1_0")
                rows = [row.rstrip("\r\n").split(",") for row in rows]
            else:
                return [table[f"f{i}"].astype(dtype)
                        for i, dtype in enumerate(dtypes)], numbers
        try:
            return [np.array([row[i] for row in rows], dtype=dtype)
                    for i, dtype in enumerate(dtypes)], numbers
        except (IndexError, ValueError, OverflowError):  # a short or unconvertible row
            width = len(dtypes)
            line, row = next((line, row) for line, row in zip(numbers, rows)
                             if len(row) < width or not all(map(_converts, row, dtypes)))
            raise ValueError(f"malformed row at line {line}: {row}") from None


def _by_row(path, lines, fn, *columns):
    """``fn(*columns)``.  When that raises ValueError, ``fn`` runs on one
    row of the columns at a time, and the error of the first row it
    rejects names ``path`` and that row's line."""
    try:
        return fn(*columns)
    except ValueError:
        with _naming(path):
            for i, line in enumerate(lines):
                try:
                    fn(*(col[i:i + 1] for col in columns))
                except ValueError as exc:
                    raise ValueError(f"line {line}: {exc}") from None
        raise


def _read_trace_csv(path) -> tuple:
    """(example ids, token indices, probs, lines), sorted by id, then
    index.  A prob that is NaN or outside [0, 1], and a key that an
    earlier row holds, are errors naming their line."""
    from .ngram import _check_probs

    (ids, pos, probs), lines = _read_columns(path, (str, np.int64, np.float64))
    _by_row(path, lines, lambda p: _check_probs("prob", p), probs)
    ids = np.char.strip(ids)
    order = np.lexsort((pos, ids))  # stable: a repeat sorts after the row it repeats
    ids, pos, probs, lines = ids[order], pos[order], probs[order], np.asarray(lines)[order]
    repeats = np.flatnonzero((ids[1:] == ids[:-1]) & (pos[1:] == pos[:-1])) + 1
    if repeats.size:
        i = repeats[np.argmin(lines[repeats])]
        raise ValueError(f"{path}: line {lines[i]}: example {ids[i].item()!r} token "
                         f"{pos[i]} repeats line {lines[i - 1]}")
    return ids, pos, probs, lines


def _unmatched_row(*traces) -> ValueError:
    """The error of two traces, each (path, ids, indices, probs, lines)
    sorted by key, whose keys differ: it names the first row, in key
    order, that has no matching row in the other file."""
    keys = [list(zip(t[1].tolist(), t[2].tolist())) for t in traces]
    i = next(i for i, (a, b) in enumerate(zip_longest(*keys)) if a != b)
    # there the smaller key, or the key of the file that has rows left while
    # the other has none, is the one without a match
    side = int(i == len(keys[0]) or (i < len(keys[1]) and keys[1][i] < keys[0][i]))
    (path, *_, lines), other = traces[side], traces[1 - side][0]
    example, token = keys[side][i]
    return ValueError(f"{path}: line {lines[i]}: example {example!r} token {token} "
                      f"has no matching row in {other}")


def _cmd_memorize(args) -> int:
    from .ngram import distributional_memorization

    ref, model = _read_trace_csv(args.ref), _read_trace_csv(args.model)
    if not all(map(np.array_equal, ref[:2], model[:2])):  # ids, token indices
        raise _unmatched_row((args.ref, *ref), (args.model, *model))
    rho = distributional_memorization(
        ref[2], model[2], ref[0], per_token=args.per_token
    )
    _emit(args, {"memorization": rho, "per_token": bool(args.per_token)},
          f"memorization: {rho!r}")
    return 0


# ---------------------------------------------------------------- toy model

def _parse_counts(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(",", " ").split())


def _toy_config(path):
    """The defaults, or a key-value text file: one `key = value` pair per
    line, # comments.  The keys are the fields of ``ToyConfig``; each value
    is converted by the type of its field's default (``float`` accepts
    "inf"; a tuple is comma- or space-separated integers).

    Unknown keys are an error: a misspelt key would otherwise leave its
    field at the default without a word.
    """
    from dataclasses import fields

    from .dynamics import ToyConfig, _check_records, _record_count

    if not path:
        return ToyConfig()
    parsers = {f.name: _parse_counts if isinstance(f.default, tuple) else type(f.default)
               for f in fields(ToyConfig)}
    entries = {}
    with _naming(path):
        for n, line in enumerate(_read_text(path)[1], 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {n}: expected key = value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = n, value
        unknown = sorted(set(entries) - set(parsers))
        if unknown:
            raise ValueError(
                f"unknown config key(s) {', '.join(unknown)}; "
                f"known keys: {', '.join(parsers)}"
            )
        values = {}
        for key, (n, value) in entries.items():
            try:
                values[key] = parsers[key](value)
            except ValueError as exc:
                raise ValueError(f"line {n}: {key}: {exc}") from None
        cfg = ToyConfig(**values)
        _check_records(_record_count(cfg))  # before the run, not after it
    return cfg


def _trajectory_csv(traj) -> str:
    """One row per record."""
    names, columns = zip(
        ("step", traj.steps), ("loss", traj.loss), ("rankme", traj.rankme),
        *((f"sigma_f_{i}", col) for i, col in enumerate(traj.sigma_f.T, 1)),
        *((f"sigma_w_{i}", col) for i, col in enumerate(traj.sigma_w.T, 1)),
        ("align_err", traj.align_err), ("conserve_err", traj.conserve_err),
        ("a_norm", traj.a_norm),
    )
    return _csv_text(names, [col.tolist() for col in columns])


def _toy_checks(traj) -> dict:
    """The conservation report, and the growth-law report where every step
    was recorded; ``toy-run`` and ``toy-verify`` both print them."""
    from .dynamics import check_conservation, check_growth_law

    return {
        "conservation": check_conservation(traj),
        "growth_law": check_growth_law(traj) if traj.cfg.record_every == 1 else None,
    }


def _cmd_toy_run(args) -> int:
    from dataclasses import asdict

    from .dynamics import phase_summary, run_trajectory

    cfg = _toy_config(args.config)
    traj = run_trajectory(cfg)
    config = asdict(cfg)
    if math.isinf(cfg.label_odds):  # strict JSON has no infinity; "inf" is
        config["label_odds"] = "inf"  # also the config syntax
    doc = {
        "config": config,
        "phases": asdict(phase_summary(traj.rankme)),
        **_toy_checks(traj),
    }
    outdir = _write_files(args.output, {"trajectory.csv": _trajectory_csv(traj),
                                        "summary.json": _json_text(doc)})
    _emit(args, doc, f"trajectory + summary -> {outdir}")
    return 0


def _cmd_toy_verify(args) -> int:
    from .dynamics import primacy_selection_probe, run_trajectory

    traj = run_trajectory(_toy_config(args.config))
    doc = {**_toy_checks(traj), "primacy": primacy_selection_probe(traj)}
    _emit(args, doc, _json_text(doc))
    return 0


# ---------------------------------------------------------------- eval

def _cmd_passk(args) -> int:
    from .evalmetrics import _check_k, pass_at_k

    # CSV of (problem_id, N, c)
    (_, n, c), lines = _read_columns(args.input, (str, np.int64, np.int64))
    ks = []
    with _naming("--k"):  # before the rows, so that no row is blamed for a k
        for v in args.k.split(","):
            try:
                ks.append(int(v))
            except ValueError:
                raise ValueError(f"{v!r} is not an integer") from None
            _check_k(ks[-1])

    def mean_pass(n, c):
        problems = list(zip(n.tolist(), c.tolist()))
        return {str(k): pass_at_k(problems, k) for k in ks}

    result = _by_row(args.input, lines, mean_pass, n, c)
    _emit(args, result,
          "\n".join(f"pass@{k}: {result[str(k)]!r}" for k in ks))
    return 0


def _cmd_dpo_check(args) -> int:
    from .evalmetrics import _dpo_loss_and_gap

    (r_w, r_l), lines = _read_columns(args.input, (np.float64, np.float64))
    loss, gap = _by_row(args.input, lines, _dpo_loss_and_gap, r_w, r_l)
    _emit(args, {"dpo_loss": loss, "max_identity_gap": gap},
          f"dpo_loss: {loss!r}  max identity gap: {gap!r}")
    return 0


# ---------------------------------------------------------------- dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgeo",
        description="spectral geometry toolkit for learned representations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="JSON output on stdout")
        p.set_defaults(func=func)
        return p

    p = add("spectrum", _cmd_spectrum, "covariance eigenvalues of a matrix file")
    p.add_argument("matrix")
    p.add_argument("--no-center", action="store_true")

    p = add("rankme", _cmd_rankme, "effective rank of a matrix file")
    p.add_argument("matrix")
    p.add_argument("--no-center", action="store_true")

    p = add("alphareq", _cmd_alphareq, "power-law decay exponent of the spectrum")
    p.add_argument("matrix")
    p.add_argument("--no-center", action="store_true")
    p.add_argument("--window", nargs=2, type=int, metavar=("IMIN", "IMAX"))

    p = add("ablate", _cmd_ablate, "project onto / off the top-k eigenvectors")
    p.add_argument("matrix")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--mode", choices=["retain_top", "remove_top"],
                   default="retain_top")
    p.add_argument("-o", "--output", required=True)

    p = add("sweep", _cmd_sweep, "spectral metrics for a manifest of checkpoints")
    p.add_argument("--manifest", required=True)
    p.add_argument("-o", "--output", default="sweep_out")

    p = add("ngram-build", _cmd_ngram_build, "build a suffix index from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("-o", "--output", required=True)

    p = add("ngram-query", _cmd_ngram_query, "next-token distribution for a context")
    p.add_argument("--index", required=True)
    p.add_argument("--context", required=True,
                   help="space-separated token ids (may be empty)")

    p = add("memorize", _cmd_memorize, "rank correlation of two likelihood traces")
    p.add_argument("--ref", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--per-token", action="store_true")

    p = add("toy-run", _cmd_toy_run, "simulate the linear bottleneck classifier")
    p.add_argument("--config", help="key=value config file (defaults if omitted)")
    p.add_argument("-o", "--output", default="toy_out")

    p = add("toy-verify", _cmd_toy_verify, "alignment / growth-law diagnostics")
    p.add_argument("--config")

    p = add("passk", _cmd_passk, "unbiased pass@k from (problem, N, c) records")
    p.add_argument("--input", required=True)
    p.add_argument("--k", required=True, help="comma-separated k values")

    p = add("dpo-check", _cmd_dpo_check, "preference loss and its identity gap")
    p.add_argument("--input", required=True)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"specgeo: error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
