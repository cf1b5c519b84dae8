"""Command-line interface.

Exit codes: 0 all checks pass; 1 a requested mathematical verdict is negative;
2 validation or parse error, an unreadable file, or a system too large for the
available memory; 3 numerical breakdown (two independent routes to the same
quantity disagreed, or a residual check failed).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

import numpy as np

from .algebra import DEFAULT_TOL, ToleranceConfig
from .descriptions import parse_system
from .errors import InputError, NumericalBreakdown, ParseError
from .pipeline import analyze_description
from .report import analysis_to_dict, emit_report
from .spectrum import cesaro_sequence, admissible_elements

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BREAKDOWN = 3


def _seed(text: str) -> int:
    """Argparse type: a nonnegative integer, as numpy's generators take."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _positive(kind):
    """Argparse type: a finite number of the given kind, greater than zero."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__}: {text!r}")
        if not 0 < value < float("inf"):  # also rejects nan
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text}")
        return value
    return parse


def shipped_system_paths() -> list:
    root = resources.files("vnspec").joinpath("systems")
    return sorted((p for p in root.iterdir() if p.name.endswith(".json")),
                  key=lambda p: p.name)


def _resolve_tolerances(desc, args) -> ToleranceConfig:
    """Per-file tolerances with command-line flags layered on top."""
    base = desc.tolerance_config(DEFAULT_TOL)
    return ToleranceConfig(
        eps_rank=args.eps_rank if args.eps_rank is not None else base.eps_rank,
        eps_assert=(args.eps_assert if args.eps_assert is not None
                    else base.eps_assert),
        cesaro_n_max=base.cesaro_n_max)


def _analyze_file(path: str, args):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    desc = parse_system(text)
    return analyze_description(desc, _resolve_tolerances(desc, args), args.seed)


def cmd_analyze(args) -> int:
    an = _analyze_file(args.file, args)
    if not args.quiet:
        print(emit_report(an, "json" if args.format == "json" else "text"))
    return EXIT_OK if an.passed else EXIT_BREAKDOWN


def cmd_report(args) -> int:
    an = _analyze_file(args.file, args)
    print(emit_report(an, args.format))
    return EXIT_OK if an.passed else EXIT_BREAKDOWN


def cmd_certify_rds(args) -> int:
    an = _analyze_file(args.file, args)
    sp = an.spectrum
    if not args.quiet:
        print(f"relative discrete spectrum: {sp.rds}")
        print(f"  complement dim {sp.dim_complement}, spanned by "
              f"{len(sp.modules)} modules, lifted traces "
              f"{[round(m.lifted_trace, 9) for m in sp.modules]}")
        print(f"  lifted trace of complement: "
              f"{an.basic.lifted_value(an.basic.complement_coords).real:.9g} (finite)")
    if not an.passed:
        return EXIT_BREAKDOWN
    return EXIT_OK if sp.rds else EXIT_NEGATIVE


def cmd_rwm(args) -> int:
    if args.cesaro_n is not None and args.element is None:
        print("invalid input: --N needs --element", file=sys.stderr)
        return EXIT_INVALID
    an = _analyze_file(args.file, args)
    sp = an.spectrum
    if args.element is not None:
        elements = dict(admissible_elements(an.built.system, an.built.sub,
                                            seed=args.seed))
        if args.element not in elements:
            print(f"unknown element {args.element!r}; available: "
                  f"{sorted(elements)}", file=sys.stderr)
            return EXIT_INVALID
        seq = cesaro_sequence(an.built.system, an.built.sub,
                              elements[args.element], n_max=args.cesaro_n,
                              early_exit=False)
        if not args.quiet:
            print(f"cesaro averages for {args.element} "
                  f"(N = 1..{len(seq)}): min {seq.min():.6g}, "
                  f"last {seq[-1]:.6g}")
            print(" ".join(f"{x:.9g}" for x in seq))
    elif not args.quiet:
        for s in sp.cesaro:
            print(f"  element {s.label}: min c_N = {s.minimum:.6g} over "
                  f"{s.values.size} averages")
    if not args.quiet:
        print(f"weakly mixing relative to the subsystem: {sp.rwm}")
    if not an.passed:
        return EXIT_BREAKDOWN
    return EXIT_OK if sp.rwm else EXIT_NEGATIVE


def cmd_joining(args) -> int:
    an = _analyze_file(args.file, args)
    doc = analysis_to_dict(an)["joining"]
    checks = {c.name: c for c in an.checks}
    if not args.quiet:
        print(f"joining GNS rank: {doc['rank']}")
        print(f"  state two-formula residual: {doc['two_formula_residual']:.3e}")
        print(f"  marginal residual:          {doc['marginal_residual']:.3e}")
        print(f"  invariance residual:        {doc['invariance_residual']:.3e}")
        print(f"  F-subspace span residual:   {doc['f_subspace_span_residual']:.3e}")
        print(f"  equivalence isometry:       {checks['R_isometry'].residual:.3e}")
        print(f"  equivalence intertwining:   {checks['R_intertwine'].residual:.3e}")
    return EXIT_OK if an.passed else EXIT_BREAKDOWN


def cmd_selftest(args) -> int:
    reports = []
    ok = True
    for path in shipped_system_paths():
        desc = parse_system(path.read_text())
        an = analyze_description(desc, _resolve_tolerances(desc, args), args.seed)
        reports.append(analysis_to_dict(an))
        ok = ok and an.passed
        if not args.quiet:
            print(f"# {desc.name}: {'pass' if an.passed else 'FAIL'}",
                  file=sys.stderr)
    doc = {"selftest_version": 1, "seed": args.seed,
           "reports": reports, "pass": ok}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_BREAKDOWN


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--eps-rank", type=_positive(float), default=None,
                        help="singular value cutoff for rank decisions")
    common.add_argument("--eps-assert", type=_positive(float), default=None,
                        help="threshold for identity checks")
    # argparse runs a string default through the type, so a bad VNSPEC_SEED
    # is a usage error like a bad --seed
    common.add_argument("--seed", type=_seed,
                        default=os.environ.get("VNSPEC_SEED", "0"),
                        help="seed for pseudo-random checks (env VNSPEC_SEED)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress narrative output")
    parser = argparse.ArgumentParser(
        prog="vnspec",
        description="analysis of finite-dimensional tracial dynamical systems")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", parents=[common],
                        help="full analysis with the check ledger")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("certify-rds", parents=[common],
                        help="certify relative discrete spectrum")
    p.add_argument("file")
    p.set_defaults(func=cmd_certify_rds)

    p = subs.add_parser("rwm", parents=[common],
                        help="relative weak mixing verdict and averages")
    p.add_argument("file")
    p.add_argument("--element", default=None,
                   help="label of an admissible mean-zero element (k0, k1, ...)")
    p.add_argument("--N", dest="cesaro_n", type=_positive(int), default=None,
                   help="number of Cesaro averages (needs --element)")
    p.set_defaults(func=cmd_rwm)

    p = subs.add_parser("joining", parents=[common],
                        help="joining and equivalence residuals")
    p.add_argument("file")
    p.set_defaults(func=cmd_joining)

    p = subs.add_parser("report", parents=[common],
                        help="emit the analysis report")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_report)

    p = subs.add_parser("selftest", parents=[common],
                        help="analyze every shipped example system")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalBreakdown, np.linalg.LinAlgError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("system is too large for the available memory", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
