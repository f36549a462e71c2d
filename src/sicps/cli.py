"""Command-line front end: instance analysis, decode tests, rates, curves, simulation.

Exit codes: 0 success, 1 stdout closed early, 2 usage error, 3 verification
failure.  Output is a pure function of the flags (plus the seed for randomized subcommands).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .bounds import build_report
from .coloring import VerificationError, theorem1_coloring
from .icp import GapVector, UnionIcp, build_union_icp, check_union_size
from .macc import (
    CcdnConfig,
    RatePoint,
    end_to_end_simulate,
    rate_hkd,
    rate_new,
    rate_rk,
    tradeoff_curve,
)
from .scheme import MdsCode, TransmissionScheme, build_mds_scheme, plan_decode, simulate_decode

USAGE_ERROR = 2
VERIFICATION_FAILURE = 3


def _decimal(x: Fraction) -> str:
    try:
        return f"{x.numerator / x.denominator:.6g}"
    except OverflowError:
        raise ValueError("value too large to print as a decimal (floats end near 1.8e308)")


def _exact(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:  # Python refuses int-to-str conversions past its digit limit.
        raise ValueError(f"value too large to print exactly (more than "
                         f"{sys.get_int_max_str_digits()} digits)") from None


def _config(args) -> CcdnConfig:
    """The caching system of the macc flags; --N defaults to --K."""
    return CcdnConfig(N=args.K if args.N is None else args.N, K=args.K, L=args.L)


_TRADEOFF_FIELDS = ("M_exact", "M_decimal", "rate_exact", "rate_decimal", "source")


def _tradeoff_rows(points: list[RatePoint]) -> list[tuple[str, ...]]:
    return [(_exact(p.M), _decimal(p.M), _exact(p.rate), _decimal(p.rate), p.source)
            for p in points]


def tradeoff_csv(points: list[RatePoint]) -> str:
    lines = [",".join(row) for row in [_TRADEOFF_FIELDS, *_tradeoff_rows(points)]]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _canonical_union(args) -> tuple[UnionIcp, int]:
    """The union of the gap flags' canonical rotation, and the shift; size checked first."""
    spec = GapVector(tuple(args.gaps), args.L)
    check_union_size(spec)
    spec, shift = spec.canonicalize()
    return build_union_icp(spec), shift


def cmd_icp_analyze(args) -> int:
    icp, shift = _canonical_union(args)
    spec, report = icp.spec, build_report(icp)
    lcv = report.local_chromatic
    ratio = report.gap_ratio
    if args.format == "json":
        payload = {
            "gaps": list(spec.gaps),
            "rotation_shift": shift,
            "L": spec.L,
            "K": spec.K,
            "i": spec.i,
            "bounds": report.to_json(),
            "gap_ratio": _exact(ratio),
            "coloring": {
                "colors": report.colors,
                "proper": True,  # an improper coloring raised VerificationError
                "local_chromatic": lcv,
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"gaps: {','.join(map(str, spec.gaps))} (canonical, shift {shift})")
        print(f"L: {spec.L}")
        print(f"K: {spec.K}")
        print(f"upper_Ru: {report.upper}")
        print(f"lower_constructive: {report.lower_constructive}")
        print(f"lower_brute: {report.lower_brute if report.lower_brute is not None else 'skipped'}")
        print(f"exact: {report.exact if report.exact is not None else 'unknown'}")
        print(f"gap_ratio: {_exact(ratio)} ({_decimal(ratio)})")
        print("coloring_proper: true")
        print(f"local_chromatic: {lcv}")
    return 0


def _scheme_json(scheme: TransmissionScheme) -> dict:
    return {
        "colors": scheme.num_colors,
        "chi": scheme.chi,
        "field": scheme.field_order,
        "assignment": [
            [u, t, c] for (u, t), c in sorted(scheme.coloring.assignment.items())
        ],
    }


def cmd_icp_decode_test(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    icp, _ = _canonical_union(args)
    spec = icp.spec
    scheme = build_mds_scheme(icp, theorem1_coloring(icp), MdsCode(icp.K, args.field))
    plans = [plan_decode(scheme, k) for k in range(1, icp.K + 1)]
    q, failures = scheme.field_order, 0
    for trial in range(args.trials):
        rng = random.Random(f"{args.seed}:{trial}")
        messages = {node: rng.randrange(q) for node in icp.nodes}
        decoded = simulate_decode(scheme, messages, plans)
        failures += sum(decoded[node] != messages[node] for node in icp.nodes)
    if args.format == "json":
        payload = {
            "gaps": list(spec.gaps),
            "L": spec.L,
            "K": spec.K,
            "trials": args.trials,
            "failures": failures,
            "scheme": _scheme_json(scheme),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"gaps: {','.join(map(str, spec.gaps))}")
        print(f"L: {spec.L}")
        print(f"K: {spec.K}")
        print(f"chi: {scheme.chi}")
        print(f"field: {scheme.field_order}")
        print(f"trials: {args.trials}")
        print(f"failures: {failures}")
    return 0 if failures == 0 else VERIFICATION_FAILURE


def cmd_macc_rate(args) -> int:
    cfg = _config(args)
    N, K, L, w = cfg.N, cfg.K, cfg.L, args.w
    memory = Fraction(w * N, K)
    rates = {
        "new": rate_new(K, L, w),
        "hkd": rate_hkd(K, L, w),
        "rk": rate_rk(N, K, L, memory),
    }
    if args.format == "json":
        payload = {
            "N": N,
            "K": K,
            "L": L,
            "w": w,
            "M": _exact(memory),
            "rates": {
                name: {"exact": _exact(value), "decimal": _decimal(value)}
                for name, value in rates.items()
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        labels = {"new": "R_new", "hkd": "R_HKD", "rk": "R_RK"}
        lines = [f"M: {_exact(memory)} ({_decimal(memory)})"]
        lines += [f"{labels[name]}: {_exact(value)} ({_decimal(value)})"
                  for name, value in rates.items()]
        print("\n".join(lines))
    return 0


def cmd_macc_tradeoff(args) -> int:
    points = tradeoff_curve(_config(args), samples=args.samples)
    if args.format == "json":
        payload = [dict(zip(_TRADEOFF_FIELDS, row)) for row in _tradeoff_rows(points)]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(tradeoff_csv(points), args.out)
    return 0


def cmd_macc_simulate(args) -> int:
    report = end_to_end_simulate(_config(args), args.w, args.demands,
                                 field_order=args.field, seed=args.seed)
    if args.format == "text":
        print(f"decoded_ok: {str(report.decoded_ok).lower()}")
        print(f"total_rate: {_exact(report.total_rate)} ({_decimal(report.total_rate)})")
        for cls in report.classes:
            rep = ",".join(map(str, cls.representative))
            print(f"class ({rep}): columns={cls.columns} split={cls.split} "
                  f"chi={cls.chi} field={cls.field}")
        for failure in report.failures:
            print(f"FAIL {failure}")
    else:
        print(json.dumps(report.to_json(), indent=2))
    return 0 if report.decoded_ok else VERIFICATION_FAILURE


def _add_format(parser, choices=("text", "json"), default="text") -> None:
    parser.add_argument("--format", choices=list(choices), default=default)


def _add_int_list(parser, flag: str) -> None:
    """A required comma-separated integer list; "" is the empty list, an empty item an error."""
    def parse(text: str) -> list[int]:
        try:
            return [int(part) for part in text.split(",")] if text else []
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} expects a comma-separated integer list")

    parser.add_argument(flag, required=True, type=parse)


def _add_gap_instance(parser) -> None:
    _add_int_list(parser, "--gaps")
    parser.add_argument("--L", required=True, type=int)


def _add_caching_system(parser) -> None:
    parser.add_argument("--N", type=int, default=None)
    parser.add_argument("--K", required=True, type=int)
    parser.add_argument("--L", required=True, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sicps",
        description="Structured index coding bounds and multi-access caching rates",
    )
    top = parser.add_subparsers(dest="domain", required=True)

    icp = top.add_parser("icp", help="gap-instance analysis and decode checks")
    icp_sub = icp.add_subparsers(dest="command", required=True)

    analyze = icp_sub.add_parser("analyze", help="bounds, exact cases, coloring value")
    _add_gap_instance(analyze)
    _add_format(analyze)
    analyze.set_defaults(handler=cmd_icp_analyze)

    decode = icp_sub.add_parser("decode-test", help="randomized decode verification")
    _add_gap_instance(decode)
    decode.add_argument("--field", type=int, default=None)
    decode.add_argument("--trials", type=int, default=20)
    decode.add_argument("--seed", required=True, type=int)
    _add_format(decode)
    decode.set_defaults(handler=cmd_icp_decode_test)

    macc = top.add_parser("macc", help="multi-access caching rates and simulation")
    macc_sub = macc.add_subparsers(dest="command", required=True)

    rate = macc_sub.add_parser("rate", help="corner-point rates")
    _add_caching_system(rate)
    rate.add_argument("--w", required=True, type=int)
    _add_format(rate)
    rate.set_defaults(handler=cmd_macc_rate)

    tradeoff = macc_sub.add_parser("tradeoff", help="rate-memory curve as CSV")
    _add_caching_system(tradeoff)
    tradeoff.add_argument("--samples", type=int, default=0)
    tradeoff.add_argument("--out", default=None)
    _add_format(tradeoff, choices=("csv", "json"), default="csv")
    tradeoff.set_defaults(handler=cmd_macc_tradeoff)

    simulate = macc_sub.add_parser("simulate", help="placement-to-decode simulation")
    _add_caching_system(simulate)
    simulate.add_argument("--w", required=True, type=int)
    _add_int_list(simulate, "--demands")
    simulate.add_argument("--field", type=int, default=None)
    simulate.add_argument("--seed", required=True, type=int)
    _add_format(simulate, choices=("json", "text"), default="json")
    simulate.set_defaults(handler=cmd_macc_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` shares across calls; build_parser returns a fresh one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # here, so that a closed stdout is caught below
        return code
    except BrokenPipeError:  # the reader left: devnull takes the flush at exit (Python's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE if isinstance(exc, VerificationError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
