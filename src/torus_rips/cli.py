"""Command line front end: betti, facets, verify-table, certify, and the facets text format."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, replace
from typing import Callable, Iterable, Optional, Sequence, TextIO

from . import __version__
from .complexes import DEFAULT_SIMPLEX_BUDGET, Simplex, vr_graph
from .errors import BudgetError, UnsupportedRegimeError
from .facets import (
    FacetSet,
    brute_force_facets,
    cycle_facets,
    in_window_interior,
    torus_facets,
    z2_facets_in_window,
)
from .pipeline import (
    COEFFICIENTS,
    RunConfig,
    build_space,
    certify_torus,
    compute_profile,
    default_certify_depth,
    load_golden_table,
    run_golden_row,
)
from .spaces import FiniteMetricSpace, Window

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _parse_window(text: str) -> Window:
    try:
        xs, ys = text.split(",")
        x_min, x_max = (int(v) for v in xs.split(":"))
        y_min, y_max = (int(v) for v in ys.split(":"))
        return Window(x_min, x_max, y_min, y_max)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be nonempty and look like '-6:6,-6:6', got {text!r}"
        ) from None


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":") if ":" in text else (text, text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must be an integer or look like '3:9', got {text!r}"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range {text} is empty: {lo} > {hi}")
    return lo, hi


def _parse_max_dim(text: str) -> Optional[int]:
    if text == "full":
        return None
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"max-dim must be nonnegative or 'full', got {text}")
    return int(text)


def _emit(payload: dict, out: TextIO) -> None:
    out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _error(category: str, message: str, exit_code: int, **fields: object) -> int:
    _emit(
        {
            "kind": "error",
            "version": __version__,
            "error": category,
            "message": message,
            "exit_code": exit_code,
            **fields,
        },
        sys.stderr,
    )
    return exit_code


def _setting(flag: Optional[float], name: str, parse: Callable[[str], float],
             default: Optional[float]) -> Optional[float]:
    """The flag if given, else environment variable name parsed, else default."""
    if flag is not None:
        return flag
    text = os.environ.get(name)
    try:
        return parse(text) if text else default
    except ValueError as exc:
        raise ValueError(f"environment variable {name}: {exc}") from None


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    budget = _setting(args.budget, "SIMPLEX_BUDGET", int, DEFAULT_SIMPLEX_BUDGET)
    time_budget = _setting(args.time_budget, "TIME_BUDGET_SECS", float, None)
    return RunConfig(
        # verify-table's --coefficients filters rows, and each row sets its ring.
        coefficients=args.coefficients or "gf2",
        max_dim=getattr(args, "max_dim", None),
        simplex_budget=budget or None,
        time_budget_secs=time_budget,
    )


def _payload(
    kind: str,
    start: float,
    args: argparse.Namespace,
    config: Optional[RunConfig],
    **fields: object,
) -> dict:
    """A result payload: kind, version, the fields, elapsed time and any config."""
    payload = {
        "kind": kind,
        "version": __version__,
        **fields,
        "wall_time_ms": None if args.no_timing else int((time.monotonic() - start) * 1000),
    }
    if config is not None:
        payload["config"] = {"simplex_budget": config.simplex_budget, "format": args.format}
    return payload


def _reported_n(args: argparse.Namespace) -> Optional[int]:
    """The n a result reports: a window ignores --n, so it has none."""
    return None if args.space == "window" else args.n


def cmd_betti(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    start = time.monotonic()
    space = build_space(args.space, n=args.n, window=args.window)
    n = _reported_n(args)
    profile, _ = compute_profile(space, args.k, config)
    if args.format == "csv":
        # csv quotes the comma in a window label and writes n=None as empty.
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "k", "dim", "betti", "coefficients", "source"])
        for d, b in enumerate(profile.betti):
            writer.writerow([n, args.k, d, b, profile.coefficients, space.label])
        return EXIT_OK
    max_dim = config.max_dim if config.max_dim is not None else len(profile.betti) - 1
    payload = _payload(
        "betti-result", start, args, config,
        space=space.label,
        n=n,
        k=args.k,
        coefficients=profile.coefficients,
        max_dim=max_dim,
        betti=list(profile.betti),
        torsion=[list(t) for t in profile.torsion],
        euler=profile.euler,
        truncated_at=profile.truncated_at,
    )
    _emit(payload, sys.stdout)
    return EXIT_OK


def _facet_catalog(args: argparse.Namespace):
    if args.space == "cycle":
        return cycle_facets(args.n, args.k)
    if args.space == "torus":
        return torus_facets(args.n, args.k)
    return z2_facets_in_window(args.window, args.k)


def _facet_oracle(args: argparse.Namespace, space: FiniteMetricSpace) -> FacetSet:
    facets = brute_force_facets(vr_graph(space, args.k))
    if args.space == "window":
        # Cliques clipped by the window edge are not facets of the full
        # plane; only the interior ones are comparable to the catalog.
        return FacetSet(frozenset(
            f for f in facets.facets if in_window_interior(args.window, args.k, f)
        ))
    return facets


def format_simplex_lines(simplices: Iterable[Simplex], header: dict[str, object]) -> str:
    """The facets text format: ``# key: value`` header lines, then one simplex per line.

    A simplex line holds its ascending vertex indices separated by single
    spaces, and the lines are sorted as integer tuples.  Header values of None
    are left out, since the format cannot write them.
    """
    lines = [f"# {key}: {value}" for key, value in header.items() if value is not None]
    for sigma in sorted(simplices):
        if list(sigma) != sorted(set(sigma)):
            raise ValueError(f"simplex {sigma} is not strictly ascending")
        lines.append(" ".join(str(v) for v in sigma))
    return "\n".join(lines) + "\n"


def cmd_facets(args: argparse.Namespace) -> int:
    start = time.monotonic()
    space = build_space(args.space, n=args.n, window=args.window)
    n = _reported_n(args)

    if args.mode == "compare":
        catalog = _facet_catalog(args)
        oracle = _facet_oracle(args, space)
        only_catalog, only_oracle = catalog.symmetric_difference(oracle)
        identical = not only_catalog and not only_oracle
        payload = _payload(
            "facets-compare", start, args, None,
            space=space.label,
            n=n,
            k=args.k,
            closed_form_count=len(catalog),
            brute_count=len(oracle),
            identical=identical,
            only_closed_form=[list(s) for s in only_catalog[:20]],
            only_brute=[list(s) for s in only_oracle[:20]],
        )
        _emit(payload, sys.stdout)
        return EXIT_OK if identical else EXIT_MISMATCH

    facet_set = (
        _facet_catalog(args) if args.mode == "closed-form" else _facet_oracle(args, space)
    )
    facets = sorted(facet_set.facets)
    if args.format == "json":
        payload = _payload(
            "facets-list", start, args, None,
            space=space.label,
            n=n,
            k=args.k,
            mode=args.mode,
            count=len(facets),
            facets=[list(s) for s in facets],
        )
        _emit(payload, sys.stdout)
        return EXIT_OK
    header = {"space": space.label, "n": n, "k": args.k,
              "dim": max((len(s) - 1 for s in facets), default=0)}
    sys.stdout.write(format_simplex_lines(facets, header))
    return EXIT_OK


def cmd_verify_table(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    start = time.monotonic()
    rows = load_golden_table(args.golden_file)
    if args.n is not None:
        lo, hi = args.n
        rows = [r for r in rows if lo <= r.n <= hi]
    if args.k is not None:
        lo, hi = args.k
        rows = [r for r in rows if lo <= r.k <= hi]
    if args.coefficients is not None:
        rows = [r for r in rows if r.coefficients == args.coefficients]

    results = [run_golden_row(row, config) for row in rows]
    passed = sum(1 for r in results if r["status"] == "PASS")
    failed = sum(1 for r in results if r["status"] == "FAIL")
    skipped = sum(1 for r in results if r["status"] == "SKIPPED")

    if args.format == "json":
        if args.no_timing:
            for r in results:
                if "wall_time_ms" in r:
                    r["wall_time_ms"] = None
        payload = _payload(
            "verify-table", start, args, config,
            rows=results,
            passed=passed,
            failed=failed,
            skipped=skipped,
        )
        _emit(payload, sys.stdout)
    else:
        for r in results:
            tag = f"n={r['n']} k={r['k']} {r['coefficients']}"
            if r["status"] == "PASS":
                print(f"PASS    {tag}: betti {r['computed']}  [{r['source']}]")
            elif r["status"] == "SKIPPED":
                print(f"SKIPPED {tag}: {r['reason']}  [{r['source']}]")
            else:
                print(
                    f"FAIL    {tag}: expected {r['expected']} got {r.get('computed')}"
                    f"  [{r['source']}]"
                )
        print(f"passed {passed}, failed {failed}, skipped {skipped}")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def cmd_certify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    start = time.monotonic()
    if "max_dim" not in vars(args) and config.coefficients == "gf2":
        # GF(2) evidence never certifies a wedge, so the whole complex buys
        # nothing over the depth of the expected regime profile.
        max_dim = default_certify_depth(args.n, args.k)
        if max_dim is None:
            raise ValueError(
                f"no expected regime for torus n={args.n}, k={args.k}; "
                "pass an explicit max_dim"
            )
        config = replace(config, max_dim=max_dim)
    fp, profile, antipode, conn = certify_torus(args.n, args.k, config)
    payload = _payload(
        "certify-result", start, args, config,
        space=f"torus {args.n}",
        n=args.n,
        k=args.k,
        coefficients=config.coefficients,
        claim=fp.claim,
        level=fp.level,
        consistent=fp.consistent,
        antipode=asdict(antipode),
        connectivity=asdict(conn),
        betti=None if profile is None else list(profile.betti),
        torsion=None if profile is None else [list(t) for t in profile.torsion],
        euler=None if profile is None else profile.euler,
        truncated_at=None if profile is None else profile.truncated_at,
    )
    _emit(payload, sys.stdout)
    return EXIT_OK if fp.consistent else EXIT_MISMATCH


def _add_no_timing(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-timing", action="store_true",
                        help="omit wall_time_ms so output is byte-identical across runs")


def _add_common(parser: argparse.ArgumentParser, *, coefficients: bool = True) -> None:
    parser.add_argument("--budget", type=int, default=None,
                        help="simplex budget (0 disables; default from SIMPLEX_BUDGET or "
                             f"{DEFAULT_SIMPLEX_BUDGET})")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="wall-clock budget in seconds (default from TIME_BUDGET_SECS)")
    _add_no_timing(parser)
    if coefficients:
        parser.add_argument("--coefficients", choices=COEFFICIENTS, default="gf2")


def _add_complex(parser: argparse.ArgumentParser) -> None:
    """The space and scale of one complex, as betti and facets take them."""
    parser.add_argument("--space", choices=["cycle", "torus", "window"], required=True)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--window", type=_parse_window, default=None,
                        help="lattice window as x_min:x_max,y_min:y_max")
    parser.add_argument("--k", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-rips",
        description="Vietoris-Rips complexes of torus grids, cycles, and lattice "
                    "windows: homology, facet catalogs, and topological certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="Betti numbers of one scale-k complex")
    _add_complex(p_betti)
    p_betti.add_argument("--max-dim", type=_parse_max_dim, required=True,
                         help="top homology dimension to report, or 'full'; "
                              "enumeration goes one dimension higher")
    p_betti.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p_betti)
    p_betti.set_defaults(func=cmd_betti)

    p_facets = sub.add_parser("facets", help="facet catalog, brute-force oracle, or both")
    _add_complex(p_facets)
    p_facets.add_argument("--mode", choices=["closed-form", "brute", "compare"],
                          default="closed-form")
    p_facets.add_argument("--format", choices=["text", "json"], default="text")
    _add_no_timing(p_facets)
    p_facets.set_defaults(func=cmd_facets)

    p_verify = sub.add_parser("verify-table", help="run the golden homology table")
    p_verify.add_argument("--n", type=_parse_range, default=None,
                          help="filter rows by n (single value or lo:hi)")
    p_verify.add_argument("--k", type=_parse_range, default=None,
                          help="filter rows by k (single value or lo:hi)")
    p_verify.add_argument("--coefficients", choices=COEFFICIENTS, default=None)
    p_verify.add_argument("--golden-file", default=None,
                          help="alternative golden table (defaults to the packaged one)")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    _add_common(p_verify, coefficients=False)
    p_verify.set_defaults(func=cmd_verify_table)

    p_certify = sub.add_parser("certify",
                               help="certificates and fingerprint for one torus complex")
    p_certify.add_argument("--n", type=int, required=True)
    p_certify.add_argument("--k", type=int, required=True)
    p_certify.add_argument("--max-dim", type=_parse_max_dim, default=argparse.SUPPRESS,
                           help="profile depth, or 'full' for the whole complex; "
                                "defaults to 'full' over the integers and to the "
                                "expected regime depth over GF(2)")
    _add_common(p_certify)
    p_certify.set_defaults(func=cmd_certify, format="json")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the validation code.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UnsupportedRegimeError as exc:
        return _error("unsupported-regime", str(exc), EXIT_VALIDATION)
    except BudgetError as exc:
        # A simplex budget error also names the dimension and the count it reached.
        reached = {name: getattr(exc, name, None) for name in ("dim", "count")}
        return _error("budget", str(exc), EXIT_BUDGET,
                      **{name: v for name, v in reached.items() if v is not None})
    except ValueError as exc:
        return _error("validation", str(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
