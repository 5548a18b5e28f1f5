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
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import (_DATA_ERRORS, _MATRIX_MAGIC, __version__, _csv_text, _decode_text,
               _json_text, _naming, _write_files)

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

def _matrix(path, center, solve, flag=None, rule=None):
    """``solve(fm)`` of the matrix file ``path``, read centred, or taken as
    centred without ``center``.  The read and the solve name ``path``.  A
    flag's ``rule(d)`` names ``flag``: it runs with ``d=None`` before the
    read and with the matrix's d before the solve."""
    from .io import _read_features

    if rule:
        with _naming(flag):
            rule(None)
    with _naming(path):
        fm = _read_features(path, center)
    if rule:
        with _naming(flag):
            rule(fm.d)
    with _naming(path):
        return solve(fm)


def _cmd_spectrum(args) -> int:
    from .spectral import covariance_spectrum

    vals, m, d = _matrix(args.matrix, not args.no_center,
                         lambda fm: (covariance_spectrum(fm).values.tolist(), fm.m, fm.d))
    _emit(args, {"eigenvalues": vals, "m": m, "d": d}, lambda: "\n".join(map(repr, vals)))
    return 0


def _cmd_rankme(args) -> int:
    from .spectral import covariance_spectrum, rankme

    value = _matrix(args.matrix, not args.no_center, lambda fm: rankme(covariance_spectrum(fm)))
    _emit(args, {"rankme": value}, f"rankme: {value!r}")
    return 0


def _cmd_alphareq(args) -> int:
    from .spectral import _check_window, spectral_metrics

    window = tuple(args.window) if args.window else None
    metrics = _matrix(args.matrix, not args.no_center, lambda fm: spectral_metrics(fm, window),
                      "--window", lambda d: window and _check_window(window, d))
    alpha, r2 = metrics.alpha_req, metrics.fit_r2
    _emit(
        args,
        {"alpha_req": alpha, "fit_r2": r2, "fit_window": list(metrics.fit_window)},
        f"alpha_req: {alpha!r} (r2 {r2!r}, window {metrics.fit_window})",
    )
    return 0


def _cmd_ablate(args) -> int:
    from .io import write_matrix
    from .spectral import _check_ablation, ablate_spectrum

    out = _matrix(args.matrix, True, lambda fm: ablate_spectrum(fm, args.k, args.mode),
                  "-k", lambda d: _check_ablation(args.k, args.mode, d))
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
        with _naming(source):
            raise ValueError(f"token {bad!r} is not an integer id") from None
    return _token_ids(ids, source)


def _read_corpus(path, vocab_size=None):
    """Token corpus from text (one document per line, space-separated
    decimal ids) or from a matrix file whose rows are documents, skipping
    blank lines and empty rows; SuffixIndex rejects a corpus of no tokens.
    The file is opened once, so it may be a pipe."""
    from .ngram import TokenCorpus, _token_ids

    with _naming(path), open(path, "rb") as fh:
        head = fh.read(len(_MATRIX_MAGIC))  # a matrix file's magic, or text
        if head == _MATRIX_MAGIC:
            from .io import _read_payload

            rows = _token_ids(_read_payload(fh, head=head), "matrix")
            docs = [row for row in rows if row.size]
        else:
            docs = [_parse_tokens(line, f"line {n}") for n, line
                    in enumerate(_decode_text(head + fh.read())[1], 1) if line.strip()]
        tokens = np.concatenate([np.empty(0, np.int64), *docs])
        if vocab_size is None:
            vocab_size = int(tokens.max(initial=-1)) + 1
        return TokenCorpus(tokens=tokens, vocab_size=vocab_size,
                           doc_boundaries=np.cumsum([doc.size for doc in docs]))


def _cmd_ngram_build(args) -> int:
    from .ngram import _check_vocab, build_index

    if args.vocab_size is not None:
        with _naming("--vocab-size"):  # before the corpus, as passk checks --k
            _check_vocab(args.vocab_size)
    corpus = _read_corpus(args.corpus, args.vocab_size)
    with _naming(args.corpus):
        index = build_index(corpus)
    arrays = corpus.tokens, corpus.doc_boundaries, np.int64(corpus.vocab_size), index.sa
    with open(args.output, "wb") as fh:  # the path as given: no ".npz" is added
        np.savez(fh, **dict(zip(_INDEX_KEYS, arrays)))
    _emit(args, {"tokens": len(corpus), "vocab_size": corpus.vocab_size,
                 "output": str(args.output)},
          f"indexed {len(corpus)} tokens -> {args.output}")
    return 0


_INDEX_KEYS = ("tokens", "doc_boundaries", "vocab_size", "sa")  # in file order


def _load_index(path):
    """The index ``ngram-build`` wrote, a zip of ``.npy`` arrays; SuffixIndex
    verifies the stored suffix array against the tokens, not rebuilding it,
    once TokenCorpus has accepted the vocabulary."""
    import zipfile
    import zlib

    from .ngram import SuffixIndex, TokenCorpus

    with _naming(path), open(path, "rb") as fh:
        if not fh.seekable():
            raise ValueError("index file must be a regular file, not a pipe: zip reads "
                             "its directory by seeking")
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

    context = _parse_tokens(args.context, "--context")  # the flag before the file
    index = _load_index(args.index)
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


def _is_header(row, dtypes) -> bool:
    """Whether no numeric field of the first non-blank ``row`` is a number."""
    return not any(_converts(f, np.float64) for f, d in zip(row, dtypes) if d is not str)


def _read_plain(text, lines, dtypes) -> tuple[list, list]:
    """``_read_columns`` of ``text``, split into ``lines``, by numpy's C parser,
    or ValueError.  Plain text is ASCII with no quote (a quoted field may span
    lines) and none of the separators \x1c-\x1f (the parser takes them for
    spaces; the conversion rejects them).  One ``np.loadtxt`` call reads it
    from the first data row to the last non-blank line; the lines are scanned
    in Python only if one starts at or below ",", as a blank line does."""
    if not text.isascii() or any(c in text for c in '"\x1c\x1d\x1e\x1f'):
        raise ValueError("not plain text")
    first = next((n for n, line in enumerate(lines) if line.lstrip(_BLANK)), len(lines))
    end = next((n for n in range(len(lines), first, -1) if lines[n - 1].lstrip(_BLANK)),
               first)
    first += end > first and _is_header(lines[first].rstrip("\r\n").split(","), dtypes)
    numbers, rows = range(first + 1, end + 1), lines[first:end]
    if not rows:
        raise ValueError("no data rows")
    if min(rows)[0] <= ",":  # a C pass: each blank character sorts at or below ","
        numbers = [n for n, line in enumerate(rows, first + 1) if line.lstrip(_BLANK)]
        rows = [lines[n - 1] for n in numbers]
    fields = [(f"f{i}", object if t is str else t) for i, t in enumerate(dtypes)]
    table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1, dtype=fields,
                       usecols=range(len(fields)))
    return [table[f"f{i}"].astype(dtype) for i, dtype in enumerate(dtypes)], list(numbers)


def _read_columns(path, dtypes) -> tuple[list, list]:
    """The leading ``len(dtypes)`` columns of the CSV file ``path``, each
    converted once to an array of its dtype, and the line of each data row.

    Blank rows are skipped.  The first non-blank row is a header only if
    none of its numeric fields parses as a number; any other short or
    unconvertible row, or a file without data rows, is an error.  Text that
    ``_read_plain`` refuses is split by ``csv`` and converted by
    ``_convert``, through ``_by_row``, which finds the line of a bad row."""
    with _naming(path):
        text, lines = _decode_text(Path(path).read_bytes(), newline="")
        with suppress(ValueError):  # not plain, no data row, or a row numpy refuses
            return _read_plain(text, lines, dtypes)
        reader = csv.reader(lines)
        rows, numbers = [], []
        try:
            for row in reader:
                if "".join(row).strip():
                    rows.append(row)
                    numbers.append(reader.line_num)
        except csv.Error as exc:  # a field longer than csv's limit
            with _naming(f"line {reader.line_num}"):
                raise ValueError(exc) from None
        if rows and _is_header(rows[0], dtypes):
            del rows[0], numbers[0]
        if not rows:
            raise ValueError("no data rows")
    return _by_row(path, numbers, lambda rows: _convert(rows, dtypes), rows), numbers


def _convert(rows, dtypes) -> list:
    """The leading ``len(dtypes)`` fields of the csv ``rows`` as one array
    per dtype.  A short or unconvertible row is an error whose text shows
    the first row: ``_by_row`` shows it for a single row only."""
    try:
        return [np.array([row[i] for row in rows], dtype=dtype)
                for i, dtype in enumerate(dtypes)]
    except (IndexError, ValueError, OverflowError):
        raise ValueError(f"malformed row {rows[0]}") from None


def _by_row(path, lines, fn, *columns):
    """``fn(*columns)``, for a rule ``fn`` of one row: it rejects the columns
    exactly when it rejects one of their rows.  When that raises ValueError,
    ``fn`` runs on the first half of ``[lo, hi)``, the rows that hold the
    first rejected one, to keep the half that holds it, down to one row:
    ceil(log2(n)) calls.  Its error on that row alone names ``path`` and the
    row's line.  A rule that breaks this contract passes that row; its error
    on the whole columns then names ``path`` only."""
    with _naming(path):
        try:
            return fn(*columns)
        except ValueError:
            lo, hi = 0, len(lines)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    fn(*(col[lo:mid] for col in columns))
                except ValueError:
                    hi = mid
                else:
                    lo = mid
            with _naming(f"line {lines[lo]}"):
                fn(*(col[lo:lo + 1] for col in columns))
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
        with _naming(path), _naming(f"line {lines[i]}"):
            raise ValueError(f"example {ids[i].item()!r} token {pos[i]} repeats line "
                             f"{lines[i - 1]}")
    return ids, pos, probs, lines


def _raise_unmatched_row(*traces) -> None:
    """Raise the error of two traces, each (path, ids, indices, probs,
    lines), whose keys differ: it names the first key, in key order, that
    one file has and the other has not."""
    line_of = [dict(zip(zip(t[1].tolist(), t[2].tolist()), t[4].tolist())) for t in traces]
    key = min(line_of[0].keys() ^ line_of[1].keys())
    side = int(key in line_of[1])
    path, other = traces[side][0], traces[1 - side][0]
    example, token = key
    with _naming(path), _naming(f"line {line_of[side][key]}"):
        raise ValueError(f"example {example!r} token {token} has no matching row in "
                         f"{other}")


def _cmd_memorize(args) -> int:
    from .ngram import distributional_memorization

    ref, model = _read_trace_csv(args.ref), _read_trace_csv(args.model)
    if not all(map(np.array_equal, ref[:2], model[:2])):  # ids, token indices
        _raise_unmatched_row((args.ref, *ref), (args.model, *model))
    with _naming(f"{args.ref}, {args.model}"):  # an error of both traces
        rho = distributional_memorization(ref[2], model[2], ref[0],
                                          per_token=args.per_token)
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
        for n, line in enumerate(_decode_text(Path(path).read_bytes())[1], 1):
            line = line.split("#", 1)[0].strip()
            if line:
                with _naming(f"line {n}"):
                    if "=" not in line:
                        raise ValueError(f"expected key = value, got {line!r}")
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
            with _naming(f"line {n}"), _naming(key):
                values[key] = parsers[key](value)
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
    _emit(args, doc, lambda: _json_text(doc))
    return 0


# ---------------------------------------------------------------- eval

def _cmd_passk(args) -> int:
    from .evalmetrics import _check_k, pass_at_k

    ks = []
    with _naming("--k"):  # before the file, so that no row is blamed for a k
        for v in args.k.split(","):
            try:
                ks.append(int(v))
            except ValueError:
                raise ValueError(f"{v!r} is not an integer") from None
            _check_k(ks[-1])
    ks = list(dict.fromkeys(ks))  # each k once, in first-seen order
    # CSV of (problem_id, N, c)
    (_, n, c), lines = _read_columns(args.input, (str, np.int64, np.int64))

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
