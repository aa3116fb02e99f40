"""Command-line interface.

Matrix results go to stdout in the package text formats (12 significant
digits); one-line human summaries go to stderr so results stay pipeable.
``--json`` switches stdout to a single schema-versioned JSON document.

Exit codes: 0 success, 2 precondition or input violation (a request larger
than memory included), 3 iteration budget exhausted.

Handlers return ``(payload, text, summary)``: the ``--json`` document
without ``schema`` and ``command`` (``None`` when the command has no JSON
form), the stdout text and the stderr line (or ``None``); :func:`main`
writes them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, core, family, formats, gen, infnorm, lss, maxnorm, sign
from .errors import IterationLimitError, PreconditionError

SCHEMA = "metzstab.result/1"


def _read(reader, path: str):
    return reader(sys.stdin.read() if path == "-" else Path(path).read_text())


def _mat(a) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(a)]


def _sign_rows(m: sign.SignMatrix) -> list[list[str]]:
    return [line.split() for line in formats.write_sign_matrix(m).splitlines()[1:]]


def _cmd_eig(args):
    pair = core.selected_leading_eigenpair(_read(formats.read_matrix, args.matrix))
    payload = {"value": pair.value, "vector": [float(x) for x in pair.vector],
               "iterations": pair.iterations, "residual": pair.residual}
    text = f"{pair.value:.12g}\n" + " ".join(f"{x:.12g}" for x in pair.vector) + "\n"
    return payload, text, (f"abscissa = {pair.value:.12g}  iterations = {pair.iterations}  "
                           f"residual = {pair.residual:.3e}")


# The closest (un)stable matrix commands: name -> (help, --norm choices with
# the default first, boundary level the residual is measured against
# (destab-schur's --level overrides it), solve(a, args)). Under --norm one the
# solver runs on the transpose and the result is transposed back.
_CLOSEST = {
    "destab-max": (
        "closest unstable matrix, max norm", ("max",), 0.0,
        lambda a, args: maxnorm.closest_unstable_max(a)),
    "stab-max": (
        "closest stable matrix, max norm", ("max",), 0.0,
        lambda a, args: maxnorm.closest_stable_max(a)),
    "destab-inf": (
        "closest unstable matrix, l-inf norm", ("inf", "one"), 0.0,
        lambda a, args: infnorm.closest_unstable_inf_hurwitz(a)),
    "stab-inf": (
        "closest stable matrix, l-inf norm", ("inf", "one"), 0.0,
        lambda a, args: infnorm.closest_stable_inf_hurwitz(a)),
    "destab-schur": (
        "closest matrix with rho >= level, l-inf norm", ("inf", "one"), 1.0,
        lambda a, args: infnorm.closest_unstable_inf_schur(a, level=args.level)),
    "stab-schur": (
        "closest Schur-stable matrix, l-inf norm", ("inf", "one"), 1.0,
        lambda a, args: infnorm.closest_stable_inf_schur(a, allow_metzler=args.allow_metzler)),
}


def _cmd_closest(args):
    one = args.norm == "one"
    arr = _read(formats.read_matrix, args.matrix)
    *_, solve = _CLOSEST[args.command]
    result = solve(arr.T.copy() if one else arr, args)
    matrix = result.matrix.T if one else result.matrix
    payload = {"norm": args.norm, "tau_star": float(result.tau_star), "matrix": _mat(matrix)}
    if isinstance(result, core.StabilizationResult):
        payload.update(iterations=int(result.iterations),
                       residual=abs(float(result.abscissa) - args.level),
                       abscissa=float(result.abscissa),
                       trace=[[float(t), float(e)] for t, e in result.trace])
        summary = (f"tau_star = {result.tau_star:.12g}  iterations = {result.iterations}  "
                   f"abscissa = {result.abscissa:.12g}")
    else:
        axis = "row" if one else "column"
        payload.update(iterations=0,
                       residual=abs(core.spectral_abscissa(result.matrix) - args.level))
        if result.column is not None:
            payload.update(index=int(result.column), axis=axis)
        where = "" if result.column is None else f"  {axis} = {result.column}"
        summary = f"tau_star = {result.tau_star:.12g}{where}"
    return payload, formats.write_matrix(matrix), summary


def _cmd_opt_family(args):
    fam = _read(formats.read_family, args.family)
    if args.direction == "max" and not args.no_patch:
        out = family.optimize_with_irreducibility_patch(fam, "max")
    else:
        out = family.selective_greedy(fam, args.direction)
    payload = {"direction": args.direction,
               "abscissa": float(out.abscissa), "matrix": _mat(out.matrix),
               "row_choices": [int(c) for c in out.row_choices],
               "iterations": int(out.iterations),
               "reducible": bool(out.reducibility_flag),
               "eigenvector": [float(x) for x in out.eigenvector]}
    return payload, formats.write_matrix(out.matrix), (
        f"abscissa = {out.abscissa:.12g}  iterations = {out.iterations}  "
        f"choices = {list(out.row_choices)}  reducible = {out.reducibility_flag}")


def _cmd_sign_stab(args):
    out = sign.closest_stable_sign(_read(formats.read_sign_matrix, args.matrix))
    payload = {"k_star": int(out.k_star),
               "abscissa": float(out.abscissa),
               "sign_matrix": _sign_rows(out.sign_matrix),
               "evaluated": [[int(k), float(e)] for k, e in sorted(out.trace)]}
    return payload, formats.write_sign_matrix(out.sign_matrix), (
        f"k_star = {out.k_star}  abscissa = {out.abscissa:.12g}")


def _cmd_lss_check(args):
    system = _read(formats.read_switching_system, args.system)
    per_mode = [core.selected_leading_eigenpair(m).value for m in system.modes]
    hull = lss.hull_max_abscissa(system, resolution=args.resolution)
    verdict = bool(hull.abscissa < 0.0) if system.dim == 2 else None
    payload = {"mode_abscissas": [float(x) for x in per_mode],
               "hull_abscissa": float(hull.abscissa),
               "hull_weights": [float(w) for w in hull.weights],
               "stable": verdict}
    lines = [f"mode {k}: abscissa = {value:.12g}" for k, value in enumerate(per_mode)]
    lines.append(f"hull max abscissa = {hull.abscissa:.12g} at weights "
                 + " ".join(f"{w:.12g}" for w in hull.weights))
    if verdict is None:
        lines.append("verdict: hull stability is sufficient only in dimension 2")
    else:
        lines.append(f"verdict: {'stable' if verdict else 'not stable'} under arbitrary switching")
    return payload, "".join(line + "\n" for line in lines), None


def _cmd_lss_stab_2d(args):
    out = lss.stabilize_2d_lss(_read(formats.read_switching_system, args.system),
                               resolution=args.resolution)
    payload = {"modes": [_mat(m) for m in out.system.modes],
               "mode_taus": [float(t) for t in out.mode_taus],
               "iterations": int(out.iterations),
               "hull_abscissa": float(out.hull.abscissa),
               "hull_weights": [float(w) for w in out.hull.weights]}
    return payload, formats.write_switching_system(out.system), (
        f"mode_taus = {[round(t, 9) for t in out.mode_taus]}  "
        f"hull abscissa = {out.hull.abscissa:.12g}")


def _cmd_lss_stab_sign(args):
    out = lss.stabilize_lss_by_signs(_read(formats.read_switching_system, args.system))
    payload = {"modes": [_mat(m) for m in out.system.modes],
               "k_star": int(out.k_star),
               "mode_budgets": [int(b) for b in out.mode_budgets],
               "abscissa": float(out.abscissa),
               "acyclic": bool(out.acyclic),
               "stable_sign": _sign_rows(out.stable_sign)}
    return payload, formats.write_switching_system(out.system), (
        f"k_star = {out.k_star}  mode_budgets = {list(out.mode_budgets)}  "
        f"abscissa = {out.abscissa:.12g}  acyclic = {out.acyclic}")


def _density_percent(args):
    if not args.density:
        return None
    lo, hi = args.density
    if not 1.0 <= lo <= hi <= 100.0:
        raise PreconditionError(
            f"density bounds are percentages and must satisfy 1 <= lo <= hi <= 100, "
            f"got ({lo:g}, {hi:g})")
    return lo / 100.0, hi / 100.0


def _cmd_gen(args):
    density = _density_percent(args)
    fam = gen.generate_family(args.dim, args.count, kind=args.kind,
                              density=density, seed=args.seed)
    text = formats.write_family(fam)
    if args.output and args.output != "-":
        Path(args.output).write_text(text)
        return None, "", f"wrote family to {args.output}"
    return None, text, None


def _cmd_bench(args):
    density = _density_percent(args)
    rows = bench.run_bench(ops=args.op, dims=args.dim, counts=args.count or [50],
                           kind=args.kind, density=density, trials=args.trials,
                           seed=args.seed or 0)
    summary = None
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            bench.write_csv(rows, handle)
        summary = f"wrote CSV to {args.csv}"
    return {"rows": rows}, bench.format_table(rows), summary


def build_parser() -> argparse.ArgumentParser:
    # --seed and --norm go only on the commands that read them; the eigen
    # tolerance and the iteration budgets are module constants with no flag.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON document on stdout")

    parser = argparse.ArgumentParser(
        prog="metzstab",
        description="Closest (un)stable Metzler/nonnegative matrices, family "
                    "optimization, sign and switching-system stabilization.")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, help_text, flags=(), **defaults):
        p = subs.add_parser(name, parents=[*flags, common], help=help_text)
        p.set_defaults(func=func, **defaults)
        return p

    p = sub("eig", _cmd_eig, "selected leading eigenpair of a Metzler matrix")
    p.add_argument("matrix", help="matrix file or - for stdin")

    for name, (help_text, norms, level, _) in _CLOSEST.items():
        p = sub(name, _cmd_closest, help_text, level=level)
        p.add_argument("matrix")
        p.add_argument("--norm", choices=norms, default=norms[0],
                       help=f"norm variant (default {norms[0]})")
    subs.choices["destab-schur"].add_argument(
        "--level", type=float, default=1.0, help="target spectral radius level (default 1)")
    subs.choices["stab-schur"].add_argument(
        "--allow-metzler", action="store_true",
        help="allow Metzler results with abscissa 1 instead of nonnegative")

    p = sub("opt-family", _cmd_opt_family, "optimize the abscissa over a product family")
    p.add_argument("family", help="family file or - for stdin")
    p.add_argument("--direction", choices=("max", "min"), default="max")
    p.add_argument("--no-patch", action="store_true",
                   help="skip the Frobenius split for maximization")

    p = sub("sign-stab", _cmd_sign_stab, "closest weakly stable sign matrix")
    p.add_argument("matrix", help="sign matrix file or - for stdin")

    p = sub("lss-check", _cmd_lss_check, "hull stability check for a switching system")
    p.add_argument("system", help="system file or - for stdin")
    p.add_argument("--resolution", type=int, default=None,
                   help="simplex grid resolution for the hull scan")
    p = sub("lss-stab-2d", _cmd_lss_stab_2d, "stabilize a planar switching system")
    p.add_argument("system")
    p.add_argument("--resolution", type=int, default=None,
                   help="simplex grid resolution for the hull scan")
    p = sub("lss-stab-sign", _cmd_lss_stab_sign, "stabilize a switching system by sign cuts")
    p.add_argument("system")

    p = sub("gen", _cmd_gen, "generate a random product family", flags=[seeded])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--kind", choices=gen.KINDS, default="full")
    p.add_argument("--density", type=float, nargs=2, metavar=("LO", "HI"),
                   help="per-row density bounds in percent (e.g. 9 15)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub("bench", _cmd_bench, "benchmark iteration counts on random instances",
            flags=[seeded])
    p.add_argument("--op", action="append", choices=bench.OPS, required=True)
    p.add_argument("--dim", action="append", type=int, required=True)
    p.add_argument("--count", action="append", type=int, default=None)
    p.add_argument("--kind", choices=gen.KINDS, default="full")
    p.add_argument("--density", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--csv", default=None, help="also write results to a CSV file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:
        parser.error(f"{args.command} does not take {unread[0]}")
    try:
        payload, text, summary = args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IterationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.json and payload is not None:
        json.dump({"schema": SCHEMA, "command": args.command, **payload}, sys.stdout)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text)
        if summary is not None:
            print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
