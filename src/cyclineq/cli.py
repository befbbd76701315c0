"""Single command-line entry point; all results are JSON on stdout.

Exit codes: 0 on success, 1 on domain errors (inadmissible exponent,
nothing to refute, invalid certificate, ...), 2 on usage errors.
"""

import argparse
import functools
import json
import sys

import numpy as np

from .classify import admissible_exponents, holds, violating_indices
from .count import brute_force_count, count_band_permutations, lucas_identity_report
from .errors import CyclineqError
from .perm import Permutation, make_permutation, shift_permutation
from .refute import refute_main, refute_nesbitt_exponent, refute_shapiro_type
from .search import (
    InequalityInstance,
    InequalityKind,
    SearchConfig,
    grid_oracle,
    minimize_gap,
    sweep_exponent,
)
from .selftest import run_selftest
from .witness import DecompositionCertificate, RationalExponent, \
    build_certificate, check_certificate


def _parse_sigma(text: str, n: int | None) -> Permutation:
    if text.startswith("shift:"):
        if n is None:
            raise CyclineqError("--sigma shift:s requires --n")
        return shift_permutation(n, int(text.split(":", 1)[1]))
    try:
        images = json.loads(text)
    except json.JSONDecodeError as err:
        raise CyclineqError(f"cannot parse --sigma {text!r}: {err}") from err
    if not isinstance(images, list):
        raise CyclineqError("--sigma must be a JSON array or shift:s")
    sigma = make_permutation(len(images) if n is None else n, images)
    return sigma


def _parse_k(text: str) -> tuple[float, RationalExponent | None]:
    """Return (float value, exact rational when the text is u/v or integer)."""
    text = text.strip()
    if "/" in text:
        rat = RationalExponent.parse(text)
        return float(rat), rat
    try:
        return float(int(text)), RationalExponent(int(text))
    except ValueError:
        pass
    try:
        return float(text), None
    except ValueError as err:
        raise CyclineqError(f"cannot parse --k {text!r}") from err


def _search_config(args, **fields) -> SearchConfig:
    try:
        return SearchConfig(restarts=args.restarts, max_iters=args.max_iters,
                            seed=args.seed, **fields)
    except ValueError as err:
        raise CyclineqError(str(err)) from err


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _cmd_classify(args) -> int:
    sigma = _parse_sigma(args.sigma, args.n)
    verdict = admissible_exponents(sigma)
    doc = {
        "n": sigma.n,
        "sigma": sigma.to_json(),
        "d_plus": verdict.d_plus,
        "d_minus": verdict.d_minus,
        "holds_for": f"k >= {verdict.d_plus} or k <= -{verdict.d_minus}",
    }
    if args.k is not None:
        k, _ = _parse_k(args.k)
        doc["k"] = k
        doc["holds"] = holds(sigma, k)
        doc["violating_indices"] = [list(pair) for pair in violating_indices(sigma, k)]
    _emit(doc)
    return 0


def _cmd_witness(args) -> int:
    sigma = _parse_sigma(args.sigma, args.n)
    if args.check_only:
        with open(args.check_only, encoding="utf-8") as fh:
            cert = DecompositionCertificate.from_json_dict(json.load(fh))
        result = check_certificate(cert, sigma)
        _emit({"valid": result.ok, "diagnosis": result.diagnosis})
        return 0 if result.ok else 1
    _, rational = _parse_k(args.k)
    if rational is None:
        raise CyclineqError(
            f"witness needs an exact rational exponent; pass --k u/v, got {args.k!r}"
        )
    cert = build_certificate(sigma, rational)
    doc = cert.to_json_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    _emit(doc)
    return 0


def _cmd_refute(args) -> int:
    if args.ineq == "nesbitt":
        report = refute_nesbitt_exponent()
    else:
        if args.sigma is None or args.k is None:
            raise CyclineqError(f"refute --ineq {args.ineq} needs --sigma and --k")
        sigma = _parse_sigma(args.sigma, args.n)
        k, _ = _parse_k(args.k)
        if args.ineq == "main":
            report = refute_main(sigma, k)
        else:
            report = refute_shapiro_type(sigma, k)
    _emit(report.to_json_dict())
    return 0


_SEARCH_KINDS = {
    "main": InequalityKind.MAIN_EXPONENT,
    "shift": InequalityKind.CYCLIC_SHIFT,
    "shapiro": InequalityKind.SHAPIRO_TYPE,
    "shapiro-exponent": InequalityKind.SHAPIRO_EXPONENT,
    "nesbitt": InequalityKind.NESBITT_CLASSIC,
    "nesbitt-exponent": InequalityKind.NESBITT_EXPONENT,
}


def _cmd_search(args) -> int:
    kind = _SEARCH_KINDS[args.ineq]
    sigma = None
    if kind in (InequalityKind.MAIN_EXPONENT, InequalityKind.SHAPIRO_TYPE):
        if args.sigma is None:
            raise CyclineqError(f"search --ineq {args.ineq} needs --sigma")
        sigma = _parse_sigma(args.sigma, args.n)
    n = sigma.n if sigma is not None else args.n
    if n is None:
        raise CyclineqError("search needs --n (or a --sigma that implies it)")
    k = None
    if kind != InequalityKind.NESBITT_CLASSIC:
        if args.k is None:
            raise CyclineqError(f"search --ineq {args.ineq} needs --k")
        k, _ = _parse_k(args.k)
    instance = InequalityInstance(kind, n, sigma=sigma, k=k, p=args.p)
    config = _search_config(args, grid_points_per_dim=args.grid_points)
    trace_rows = [] if args.trace else None
    if args.grid:
        report = grid_oracle(instance, config)
    else:
        report = minimize_gap(instance, config, trace=trace_rows)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("restart,iteration,gap,step\n")
            for row in trace_rows:
                fh.write("{},{},{!r},{!r}\n".format(*row))
    doc = report.to_json_dict()
    doc["mode"] = "grid" if args.grid else "search"
    doc["seed"] = args.seed
    _emit(doc)
    return 0


def _cmd_count(args) -> int:
    if args.lucas_table is not None:
        rows = lucas_identity_report(args.lucas_table)
        if args.csv:
            print("n,count,lucas_plus_two,match")
            for row in rows:
                print(f"{row.n},{row.count},{row.lucas_plus_two},{row.match}")
        else:
            _emit({"rows": [vars(row) | {} for row in rows]})
        return 0
    if args.k is None:
        raise CyclineqError("count needs --k (or --lucas-table)")
    doc = {"n": args.n, "k": args.k, "count": count_band_permutations(args.n, args.k)}
    if args.oracle:
        doc["oracle_count"] = brute_force_count(args.n, args.k)
        doc["match"] = doc["count"] == doc["oracle_count"]
    _emit(doc)
    return 0


def _cmd_shapiro(args) -> int:
    ks = np.linspace(args.k_min, args.k_max, args.k_steps)
    reports = sweep_exponent(args.n, ks, _search_config(args))
    rows = [{"k": float(k), "gap": rep.gap, "x": list(rep.x)}
            for k, rep in zip(ks, reports)]
    if args.emit_plot:
        with open(args.emit_plot, "w", encoding="utf-8") as fh:
            fh.write("k,gap\n")
            for row in rows:
                fh.write(f"{row['k']!r},{row['gap']!r}\n")
    _emit({"n": args.n, "sweep": rows})
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(inject_fault=args.inject_fault)
    if args.json:
        _emit({
            "ok": all(ok for _, ok, _ in results),
            "results": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        })
    else:
        width = max(len(name) for name, _, _ in results)
        for name, ok, detail in results:
            print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclineq",
        description="Decide, certify, and refute cyclic inequalities "
                    "with exponent weights and permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="admissible exponent range for a permutation")
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", required=True, help="JSON array of images or shift:s")
    p.add_argument("--k", help="optionally test one exponent")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("witness", help="build or check a decomposition certificate")
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", required=True)
    p.add_argument("--k", help="exact rational exponent u/v")
    p.add_argument("--check-only", metavar="FILE", help="check a certificate JSON file")
    p.add_argument("--out", metavar="FILE", help="also write the certificate here")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("refute", help="emit a counterexample vector")
    p.add_argument("--ineq", choices=["main", "shapiro", "nesbitt"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--sigma")
    p.add_argument("--k")
    p.set_defaults(fn=_cmd_refute)

    p = sub.add_parser("search", help="minimize lhs - rhs over positive vectors")
    p.add_argument("--ineq", choices=sorted(_SEARCH_KINDS), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--sigma")
    p.add_argument("--k")
    p.add_argument("--p", type=int, help="shift parameter for --ineq shift")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", action="store_true", help="use the grid oracle instead")
    p.add_argument("--grid-points", type=int, default=13)
    p.add_argument("--trace", metavar="FILE", help="CSV of descent iterates")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("count", help="count band permutations")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--oracle", action="store_true", help="compare with enumeration")
    p.add_argument("--lucas-table", type=int, metavar="N")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("shapiro", help="sweep the constant-RHS family over k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-min", type=float, default=0.5)
    p.add_argument("--k-max", type=float, default=1.0)
    p.add_argument("--k-steps", type=int, default=6)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-plot", metavar="FILE")
    p.set_defaults(fn=_cmd_shapiro)

    p = sub.add_parser("selftest", help="run the reduced acceptance battery")
    p.add_argument("--json", action="store_true")
    p.add_argument("--inject-fault", metavar="CHECK", choices=["witness"],
                   help="corrupt the certificates of the witness check "
                        "to demonstrate failure reporting")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "count" and args.lucas_table is None and args.n is None:
        parser.error("count needs --n --k or --lucas-table N")
    try:
        return args.fn(args)
    except CyclineqError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
