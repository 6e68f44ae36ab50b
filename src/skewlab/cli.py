"""Command-line front door: subcommand routing, file I/O, JSON/CSV reports.

Exit codes: 0 success, 2 input error, 3 falsification event (a runtime
check of a proven inequality failed; distinguished so CI can tell bad input
from a mathematical surprise or overly aggressive constants).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import TYPE_CHECKING, Any, Optional

from . import __version__
from .errors import FalsificationError, ParameterError, SkewLabError

if TYPE_CHECKING:
    from .fourier import Progression

# Each handler imports the modules it runs, so a job loads no other; numpy
# too is loaded only by the jobs that hold arrays.

GROWTH_CSV_COLUMNS = ["n", "size", "density", "fitted_c", "m", "d", "r", "t"]


def _jsonable(obj: Any) -> Any:
    # no numpy scalar can exist before numpy is imported
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write(text: str, out: Optional[str] = None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, out: Optional[str] = None) -> None:
    _write(json.dumps(_jsonable(report), indent=2) + "\n", out)


def _prog_dict(p: Optional[Progression]) -> Optional[dict]:
    return None if p is None else {**_jsonable(p), "span": p.span}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from .core import load_skewset, transpose
    from .verify import find_skew_corner

    a = load_skewset(args.infile)
    w = find_skew_corner(a)
    report = {"free": w is None, "witness": w}
    if args.bi:
        report["bi_free"] = w is None and find_skew_corner(transpose(a)) is None
    _emit(report, args.report)
    return 0


def _cmd_count(args) -> int:
    from .core import load_skewset
    from .verify import count_skew_corners_fft, count_skew_corners_naive

    a = load_skewset(args.infile)
    naive = args.method == "naive"
    c = count_skew_corners_naive(a) if naive else count_skew_corners_fft(a)
    torus_counts = not naive or a.ambient.kind == "torus"
    N = a.ambient.torus_side
    report = {
        **_jsonable(c),
        "total": c.total,
        "lambda": c.total / N**4 if torus_counts else None,
    }
    _emit(report, args.report)
    return 0


def _cmd_construct(args) -> int:
    from .construct import (
        SAMPLED,
        SKIPPED,
        VERIFY_PROBES,
        BaseSet,
        fitted_c,
        free_verification,
        product_construction,
        product_exponent,
        product_verification,
        sphere_construction,
        verify_free,
    )
    from .core import load_skewset, save_skewset

    if args.family == "sphere":
        a, params = sphere_construction(args.n, bi=args.bi)
        verification = SKIPPED
        if not args.no_verify:
            verify_free(a, seed=args.seed)  # raises when it finds a corner
            verification = free_verification(a)
        report = {
            "family": "sphere",
            "n": args.n,
            "bi": args.bi,
            "params": params,
            "size": len(a),
            "density": a.density,
            "fitted_c": fitted_c(args.n, len(a)),
        }
    else:
        if args.base:
            base_points = load_skewset(args.base)
            base = BaseSet(base_points.ambient.size, base_points)
        else:
            from .search import find_base_set

            base = find_base_set(6)
        a = product_construction(base, args.n, verify=args.force_verify)
        verification = product_verification(args.n, args.force_verify)
        report = {
            "family": "product",
            "n": args.n,
            "base_b": base.b,
            "base_size": len(base),
            "k": product_exponent(base.b, args.n),
            "size": len(a),
            "density": a.density,
        }
    report.update(verified=verification != SKIPPED, verification=verification)
    if verification == SAMPLED:
        report.update(probes=VERIFY_PROBES, seed=args.seed)
    if args.out:
        save_skewset(a, args.out)
        report["out"] = args.out
    _emit(report, args.report)
    return 0


def _parse_exps(spec: str) -> list[int]:
    parts = spec.split("..")
    if len(parts) not in (2, 3):
        raise SkewLabError(f"bad exponent range {spec!r}; expected A..B[..STEP]")
    try:
        a, b = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise SkewLabError(f"bad exponent range {spec!r}") from exc
    if step < 1 or b < a:
        raise SkewLabError(f"bad exponent range {spec!r}")
    return list(range(a, b + 1, step))


def _cmd_growth(args) -> int:
    from .construct import growth_table

    ns = [2**e for e in _parse_exps(args.exps)]
    rows = growth_table(ns, bi=args.bi)
    if args.format == "csv":
        lines = [",".join(GROWTH_CSV_COLUMNS)]
        for r in rows:
            lines.append(
                f"{r.n},{r.size},{r.density!r},{r.fitted_c!r},"
                f"{r.params.m},{r.params.d},{r.params.r},{r.params.t}"
            )
        _write("\n".join(lines) + "\n", args.report)
    else:
        _emit({"rows": rows}, args.report)
    return 0


def _cmd_search(args) -> int:
    from .ambient import Ambient, skewset_header
    from .search import DEFAULT_BUDGET, max_skew_corner_free

    ambient = Ambient(args.ambient, args.size)
    res = max_skew_corner_free(
        ambient,
        budget=DEFAULT_BUDGET if args.budget is None else args.budget,
        mode="bi_skew" if args.bi else "skew",
    )
    report = _jsonable(res)
    del report["points"]
    if args.out:
        # the `save_skewset` text of the witness, without building its GridSet
        lines = "".join(f"{x} {y}\n" for x, y in res.points)
        with open(args.out, "wb") as fh:
            fh.write((skewset_header(ambient) + lines).encode("ascii"))
        report["out"] = args.out
    _emit(report, args.report)
    return 0


def _cmd_diagnose(args) -> int:
    from .core import load_skewset
    from .fourier import check_gvn, dichotomy_report, parseval_bound, set_lambda_form

    a = load_skewset(args.infile)
    if args.check == "gvn":
        g = check_gvn(a)
        report = {
            "check": "gvn",
            "alpha": g.alpha,
            "lambda": g.lam,
            "max_nontrivial_coeff": g.max_nontrivial_coeff,
            "inequality_holds": g.inequality_holds,
            "guaranteed_count": g.guaranteed_count,
        }
    elif args.check == "dichotomy":
        report = {"check": "dichotomy", **_jsonable(dichotomy_report(a))}
    elif args.check == "parseval":
        report = {"check": "parseval", **_jsonable(parseval_bound(a))}
    else:
        lam, total = set_lambda_form(a)
        N = a.ambient.torus_side
        report = {
            "check": "lambda",
            "lambda": lam,
            "n4_lambda": lam * N**4,
            "count_total": total,
            "relative_gap": abs(lam * N**4 - total) / max(total, 1),
        }
    _emit(report, args.report)
    return 0


def _outcome_dict(out) -> dict:
    return {
        "variant": out.variant,
        "branch": out.branch,
        "alpha": out.alpha,
        "n": out.n,
        "nprime": out.n_prime,
        "density": out.density,
        "count": out.extracted_count,
        "box_area": out.box_area,
        "m": len(out.gamma_set) if out.gamma_set is not None else None,
        "progression": _prog_dict(out.progression),
        "translate": _prog_dict(out.translate),
        "note": out.note,
    }


def _cmd_increment(args) -> int:
    from .core import load_skewset, save_skewset
    from .fourier import AnalysisConfig
    from .increment import increment_step

    if args.iterations < 1:
        raise ParameterError(f"--iterations must be >= 1, got {args.iterations}")
    a = load_skewset(args.infile)
    config = AnalysisConfig(C=args.C, c_prime=args.cprime)
    mode = args.mode.replace("-", "_")
    steps = []
    cur = a
    final = None
    for _ in range(args.iterations):
        out = increment_step(cur, config=config, mode=mode)
        steps.append(_outcome_dict(out))
        final = out
        if out.variant != "subsquare" or out.extracted is None:
            break
        if out.n_prime == cur.ambient.size and len(out.extracted) == len(cur):
            break  # no progress; stop the exploration loop
        cur = out.extracted
    report = steps[0] if args.iterations == 1 else {"steps": steps}
    if args.out and final is not None and final.extracted is not None:
        save_skewset(final.extracted, args.out)
        report["out"] = args.out
    _emit(report, args.report)
    return 0


def _cmd_experiment(args) -> int:
    from .experiment import product_set_experiment

    rep = product_set_experiment(args.beta, args.N, args.trials, args.seed)
    _emit(dataclasses.asdict(rep), args.report)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlab",
        description="Skew-corner-free sets: construct, verify, count, "
        "search, diagnose, increment, experiment.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p):
        p.add_argument("--report", help="write the JSON report here instead of stdout")

    p = sub.add_parser("verify", help="check a skewset file for skew corners")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bi", action="store_true", help="also check the transpose")
    add_report(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="count skew-corner tuples")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["naive", "fft"], default="fft")
    add_report(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("construct", help="build a skew-corner-free set")
    fam = p.add_subparsers(dest="family", required=True)
    ps = fam.add_parser("sphere", help="sphere pair construction")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--bi", action="store_true")
    ps.add_argument("--out", help="write the set as a skewset file")
    ps.add_argument("--seed", type=int, default=0, help="seed for witness probes")
    ps.add_argument("--no-verify", action="store_true")
    add_report(ps)
    ps.set_defaults(func=_cmd_construct)
    pp = fam.add_parser("product", help="digit product construction")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--base", help="skewset file with the base set "
                    "(default: search the torus of side 6)")
    pp.add_argument("--out")
    pp.add_argument("--force-verify", action="store_true")
    add_report(pp)
    pp.set_defaults(func=_cmd_construct)

    p = sub.add_parser("growth", help="construction sizes over n = 2^e")
    p.add_argument("--exps", required=True, help="exponent range A..B[..STEP]")
    p.add_argument("--bi", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_report(p)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("search", help="exact extremal search")
    p.add_argument("--ambient", choices=["grid", "torus"], required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--bi", action="store_true")
    p.add_argument("--budget", type=int, help="node budget (default: the "
                   "search module's DEFAULT_BUDGET)")
    p.add_argument("--out", help="write the witness as a skewset file")
    add_report(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("diagnose", help="spectral checks on a set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--check", choices=["gvn", "dichotomy", "parseval", "lambda"],
        required=True,
    )
    add_report(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("increment", help="density increment step(s)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--mode", choices=["guaranteed", "best-effort"],
        default="best-effort",
    )
    p.add_argument("--C", type=float, default=64.0)
    p.add_argument("--cprime", type=float, default=0.05)
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--out", help="write the final extracted set here")
    add_report(p)
    p.set_defaults(func=_cmd_increment)

    p = sub.add_parser("experiment", help="numerical experiments")
    exp = p.add_subparsers(dest="experiment", required=True)
    pe = exp.add_parser("product-set", help="skew corners of random product sets")
    pe.add_argument("--beta", type=float, required=True)
    pe.add_argument("--N", type=int, required=True)
    pe.add_argument("--trials", type=int, required=True)
    pe.add_argument("--seed", type=int, required=True)
    add_report(pe)
    pe.set_defaults(func=_cmd_experiment)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FalsificationError as exc:
        print(f"falsification event: {exc}", file=sys.stderr)
        return 3
    except (SkewLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
