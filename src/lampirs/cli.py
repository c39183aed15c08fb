"""Reproducible command-line front end.

Every stochastic command requires an explicit --seed; identical invocations
produce byte-identical output.  Exit codes: 0 success / all properties hold,
1 a verified property was falsified, 2 usage or input-format error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import selftest
from .cbrank import (
    build_approach_sequence,
    cb_levels,
    classify_limit,
    level_closed_form,
    truncation,
)
from .errors import ConsistencyError, FormatError, LampirsError
from .formats import (
    canonical_json,
    canonical_json_pieces,
    distribution_to_json,
    format_submodule,
    format_triple,
    fraction_str,
    measure_from_json,
    parse_triple,
    triple_to_json,
)
from .irs import (
    SubgroupMeasure,
    convergence_report,
    convergence_trend,
    splice_measures,
)
from .lamplighter import ball_size, certify_convergence
from .rng import derive_seed
from .submodules import (
    Submodule,
    _enumerate_submodules,
    construct_with_invariants,
    count_submodules,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, with exit code 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(metavar):
    """argparse type for a comma-separated integer list.

    The metavar fixes the length (``t,r`` takes two integers), except that
    ``N[,N...]`` takes one or more.
    """
    count = None if metavar.endswith("...]") else len(metavar.split(","))
    want = f"{count} comma-separated integers" if count else "comma-separated integers"

    def parse(text):
        try:
            values = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            values = ()
        if not values or (count is not None and len(values) != count):
            raise argparse.ArgumentTypeError(f"expected {metavar} ({want}), got {text!r}")
        return values

    return parse


def _output(args):
    """A command's output: the ``-o`` file, opened for writing, or else stdout."""
    return open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)


def _write(args, text):
    """Write a command's output to the ``-o`` file, or else to stdout."""
    with _output(args) as fh:
        fh.write(text)


def _emit(args, payload, rows=None, header=None):
    """Write the payload as canonical JSON, or its table under ``--format csv``.

    The table's rows are dicts, as the payload holds them, and ``header``
    names its columns.  It is written a line at a time, the header first, as
    ``rows`` yields them.
    """
    if rows is not None and args.format == "csv":
        with _output(args) as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(str(row[c]) for c in header) + "\n")
    else:
        _write(args, canonical_json(payload))


def _read_text(path):
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not text: {exc}") from exc


def cmd_count(args):
    formula = count_submodules(args.p, args.k, args.a)
    payload = {
        "schema": "lampirs.count.v1",
        "p": args.p,
        "k": args.k,
        "a": args.a,
        "formula": str(formula),
    }
    exit_code = EXIT_OK
    if args.enumerate:
        # the subgroups are counted as they are made, never held together
        enumerated = sum(1 for _ in _enumerate_submodules(args.p, args.k, args.a))
        payload["enumerated"] = enumerated
        payload["match"] = enumerated == formula
        if not payload["match"]:
            payload["violation"] = "enumeration disagrees with the closed form"
            exit_code = EXIT_VIOLATION
    _emit(args, payload)
    return exit_code


def cmd_invariants(args):
    triple = parse_triple(_read_text(args.triple))
    payload = {"schema": "lampirs.invariants.v1", **triple.invariants()}
    _emit(args, payload)
    return EXIT_OK


def cmd_construct(args):
    U = construct_with_invariants(args.n, args.p, args.b, args.r)
    _write(args, format_submodule(U))
    return EXIT_OK


def cmd_cb(args):
    levels = cb_levels(truncation(args.tmax, args.prodmax))
    rows = [
        {"t": t, "r": r, "level": levels[t, r], "closed_form": level_closed_form((t, r))}
        for t, r in sorted(levels)
    ]
    mismatch = [row for row in rows if row["level"] != row["closed_form"]]
    payload = {
        "schema": "lampirs.cb.v1",
        "tmax": args.tmax,
        "prodmax": args.prodmax,
        "levels": rows,
        "closed_form_matches": not mismatch,
    }
    if mismatch:
        payload["violation"] = {
            "kind": "level-closed-form-mismatch",
            "witness": {"t": mismatch[0]["t"], "r": mismatch[0]["r"]},
        }
    _emit(args, payload, rows, ("t", "r", "level"))
    return EXIT_OK if not mismatch else EXIT_VIOLATION


def cmd_approach(args):
    triple = parse_triple(_read_text(args.triple))
    t_target, r_target = args.target
    radius, shift_bound, horizon = args.ball
    horizon = min(horizon, args.count)
    # refuse an oversized ball before building the sequence (which refuses count < 1)
    ball_size(triple.n, triple.p, radius, shift_bound, max(horizon, 1))
    seq = build_approach_sequence(triple, (t_target, r_target), args.count)
    cert = certify_convergence(lambda m: seq[m - 1], triple, radius, shift_bound, horizon)
    encodings_ok = all(W.poset_encoding() == (t_target, r_target) for W in seq)
    classification = classify_limit(seq, triple)
    payload = {
        "schema": "lampirs.approach.v1",
        "target": [t_target, r_target],
        "count": args.count,
        "encodings_exact": encodings_ok,
        "convergence": cert.to_json(),
        "classification": classification,
        "terms": [triple_to_json(W) for W in seq],
    }
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        for idx, W in enumerate(seq, start=1):
            with open(os.path.join(args.outdir, f"term_{idx:03d}.triple"), "w") as fh:
                fh.write(format_triple(W))
        payload["outdir"] = args.outdir
    _emit(args, payload)
    ok = encodings_ok and cert.stabilized
    return EXIT_OK if ok else EXIT_VIOLATION


def _load_measure(path):
    text = _read_text(path)
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    return measure_from_json(data)


def _printed(row):
    """An ``irs`` row with its distance and bounds as fractions."""
    fractions = ("tv", "literal_bound", "conservative_bound")
    return {**row, **{k: fraction_str(row[k]) for k in fractions}}


def cmd_irs(args):
    mu = _load_measure(args.mu)
    # the requested m first, so that an m past the budget is refused at once
    report = convergence_report(mu, args.m, args.j)
    rows = (_printed(row) for row in convergence_trend(mu, report))
    if args.format == "csv":
        header = ("m", "j", "tv", "literal_bound", "conservative_bound", "pass")
        _emit(args, None, rows, header)
    else:
        payload = {
            "schema": "lampirs.irs.v1",
            **_printed(report),
            "marginal": distribution_to_json(report["marginal"]),
        }
        trend = ({k: row[k] for k in ("m", "tv", "pass", "literal_bound_held")} for row in rows)
        # the trend is written a row at a time, as the CSV table is
        with _output(args) as fh:
            fh.writelines(canonical_json_pieces(payload, "trend", trend))
    return EXIT_OK if report["pass"] else EXIT_VIOLATION


def cmd_mix(args):
    if args.mu1:
        mu1 = _load_measure(args.mu1)
    else:
        mu1 = SubgroupMeasure.point(Submodule.full(args.n, args.p))
    if args.mu2:
        mu2 = _load_measure(args.mu2)
    else:
        mu2 = SubgroupMeasure.point(Submodule.zero(args.n, args.p))
    lo, hi = args.window
    runs = []
    all_within = True
    for n_ai in args.nai:
        empirical, target, report = splice_measures(
            mu1, mu2, n_ai, lo, hi, args.trials, derive_seed(args.seed, n_ai)
        )
        all_within = all_within and report["within_bound"]
        runs.append(
            {
                "n_ai": n_ai,
                "tv": fraction_str(report["tv"]),
                "lambda_all_first": fraction_str(report["lambda_all_first"]),
                "lambda_all_second": fraction_str(report["lambda_all_second"]),
                "boundary_defect_bound": fraction_str(report["boundary_defect_bound"]),
                "within_bound": report["within_bound"],
                "majority_sym_diff_exact": fraction_str(
                    report["majority_sym_diff_exact"]
                ),
                "empirical": distribution_to_json(empirical),
                "target": distribution_to_json(target),
            }
        )
    payload = {
        "schema": "lampirs.mix.v1",
        "trials": args.trials,
        "seed": args.seed,
        "window": [lo, hi],
        "runs": runs,
    }
    header = (
        "n_ai",
        "tv",
        "lambda_all_first",
        "boundary_defect_bound",
        "within_bound",
        "majority_sym_diff_exact",
    )
    _emit(args, payload, runs, header)
    return EXIT_OK if all_within else EXIT_VIOLATION


def cmd_selftest(args):
    report, timings = selftest.run_criteria(args.seed)
    _write(args, canonical_json(report))
    for entry in report["criteria"]:
        sys.stderr.write(
            f"criterion {entry['criterion']:2d} {entry['name']}: "
            f"{'PASS' if entry['passed'] else 'FAIL'} "
            f"{timings[entry['name']]:.2f}s\n"
        )
    return EXIT_OK if report["all_passed"] else EXIT_VIOLATION


def build_parser():
    parser = _Parser(
        prog="lampirs",
        description="Exact computations in the subgroup space of lamplighter groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp, csv=False):
        # only commands with a table offer CSV
        if csv:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("count", help="closed-form submodule count, optionally checked")
    sp.add_argument("p", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("a", type=int)
    sp.add_argument("--enumerate", action="store_true")
    add_output(sp)
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("invariants", help="invariants of a subgroup triple file")
    sp.add_argument("--triple", required=True)
    add_output(sp)
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("construct", help="subgroup with prescribed period and rank")
    sp.add_argument("n", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("r", type=int)
    sp.add_argument("--p", type=int, default=2)
    add_output(sp)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("cb", help="derivative levels of the encoding order")
    sp.add_argument("--tmax", type=int, required=True)
    sp.add_argument("--prodmax", type=int, required=True)
    add_output(sp, csv=True)
    sp.set_defaults(fn=cmd_cb)

    sp = sub.add_parser("approach", help="convergent sequence toward a triple")
    sp.add_argument("--triple", required=True)
    sp.add_argument("--target", required=True, metavar="t,r", type=_int_list("t,r"))
    sp.add_argument("--count", type=int, default=25)
    sp.add_argument("--ball", default="4,4,25", metavar="R,S,H", type=_int_list("R,S,H"))
    sp.add_argument("--outdir", default=None)
    add_output(sp)
    sp.set_defaults(fn=cmd_approach)

    sp = sub.add_parser("irs", help="block-average approximant distance report")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    add_output(sp, csv=True)
    sp.set_defaults(fn=cmd_irs)

    sp = sub.add_parser("mix", help="splice two measures along majority sets")
    sp.add_argument("--nai", required=True, metavar="N[,N...]", type=_int_list("N[,N...]"))
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--window", default="0,0", metavar="LO,HI", type=_int_list("LO,HI"))
    sp.add_argument("--mu1", default=None)
    sp.add_argument("--mu2", default=None)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--p", type=int, default=2)
    add_output(sp, csv=True)
    sp.set_defaults(fn=cmd_mix)

    sp = sub.add_parser("selftest", help="run the full acceptance suite")
    sp.add_argument("--seed", type=int, default=selftest.DEFAULT_SEED)
    add_output(sp)
    sp.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except FormatError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return EXIT_USAGE
    except ConsistencyError as exc:
        sys.stdout.write(
            canonical_json({"schema": "lampirs.violation.v1", "violation": str(exc)})
        )
        return EXIT_VIOLATION
    except LampirsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
