"""Command-line front-end: biplane / verify / fcurves / pair / extremal / pullback.

Input files (biplane blocks, divisors, curve functionals) are opened here
and nowhere else: each is read once, its bytes digested into the manifest,
decoded as strict UTF-8 and parsed by the library from that text.  Every
JSON report embeds a run manifest (command line, input digests, library
version, primes, per-phase wall clock).  Exit codes: 0 verified or
certified, 1 verification failed or inconclusive, 2 malformed input.
Reports are byte-identical from run to run, apart from the manifest timing
fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import islice

from . import __version__
from .biplane import (
    Biplane,
    build_biplane_qr,
    automorphism_group_order,
    format_biplane,
    parse_biplane,
    verify_biplane,
)
from .cone import (
    DEFAULT_PRIMES,
    check_modulus,
    check_sample_count,
    extremality_rank,
    fnef_check,
    projection_formula_report,
    verify_counterexample,
)
from .divisors import (
    DivisorClass,
    biplane_block_star_divisor,
    biplane_divisor,
    canonical_divisor,
    divisor_to_json_dict,
    divisor_to_json_text,
    divisor_to_text,
    eliminate_psi,
    parse_divisor,
    pullback_forgetful,
    symmetric_divisor,
)
from .errors import (
    FnefError,
    InvalidInputError,
    MalformedInputError,
    VerificationFailedError,
)
from .pairing import (
    biplane_curve_functional,
    functional_from_json_dict,
    pair_divisor_fcurve,
    pair_divisor_functional,
)
from .subsets import count_fcurves, enumerate_fcurves, integer, parse_fcurve, validate_n

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2

TINY_PRIME_BOUND = 1 << 20


@dataclass
class Manifest:
    """Reproducibility record embedded in every JSON report."""

    command: list[str]
    version: str = __version__
    inputs: dict[str, str] = field(default_factory=dict)
    primes: list[int] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        yield
        self.timings[name] = round(time.perf_counter() - t0, 6)


def _emit_json(payload: dict, manifest: Manifest) -> None:
    payload = dict(payload)
    payload["manifest"] = asdict(manifest)
    print(json.dumps(payload, sort_keys=True, indent=2))


def _fnef_dict(rep) -> dict:
    return {
        "n": rep.n,
        "min_value": rep.min_value,
        "argmin": str(rep.argmin),
        "zero_count": rep.zero_count,
        "nonnegative": rep.nonnegative,
    }


def _read_input(path: str, manifest: Manifest, parse):
    """Read the file at `path` once and return `parse` of its text.

    The sha256 of its bytes goes into the manifest; the bytes are decoded
    as strict UTF-8.  Every parse error is raised again naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    manifest.inputs[path] = hashlib.sha256(data).hexdigest()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError:
        raise MalformedInputError(f"{path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path}: bad JSON: {exc}") from None
    except MalformedInputError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None


def _load_biplane_arg(args, manifest: Manifest) -> Biplane:
    if not args.biplane:
        return build_biplane_qr()
    bp = _read_input(args.biplane, manifest, parse_biplane)
    verify_biplane(bp)
    return bp


def _load_divisor_arg(args, manifest: Manifest, bp: Biplane) -> DivisorClass:
    if args.divisor:
        return _read_input(args.divisor, manifest, lambda text: parse_divisor(text, args.n))
    named = args.named or "biplane"
    if named == "canonical":
        return canonical_divisor(12 if args.n is None else args.n)
    if args.n not in (None, 12):
        raise InvalidInputError(f"the {named} divisor has 12 markings, got --n {args.n}")
    if named == "symmetric":
        return symmetric_divisor()
    return biplane_divisor(bp) if named == "biplane" else biplane_block_star_divisor(bp)


def cmd_biplane(args, manifest: Manifest) -> int:
    with manifest.phase("verify"):
        bp = _load_biplane_arg(args, manifest)
        report = verify_biplane(bp)
    with manifest.phase("automorphisms"):
        order = automorphism_group_order(bp)
    if args.json:
        _emit_json(
            {
                "blocks": [" ".join(map(str, row)) for row in bp.block_elements()],
                **asdict(report),
                "automorphism_order": order,
            },
            manifest,
        )
    else:
        print(format_biplane(bp), end="")
        print(
            f"design ok: pair replication {report.pair_replication}, "
            f"point replication {report.point_replication}, "
            f"block intersections ok"
        )
        print(f"automorphism group order: {order}")
    return EXIT_OK


def cmd_verify(args, manifest: Manifest) -> int:
    bp = _load_biplane_arg(args, manifest)
    with manifest.phase("verify"):
        rep = verify_counterexample(bp)
    cert = rep.certificate
    if args.json:
        _emit_json(
            {
                "fnef": _fnef_dict(rep.fnef),
                "functional_boundary_min": cert.boundary_min,
                "canonical_pairing": cert.canonical_pairing,
                "divisor_pairing": cert.pairing,
                "verdict": rep.verdict,
                "certificate": asdict(cert),
                "decomposition_equal": rep.decomposition_equal,
            },
            manifest,
        )
    else:
        print(f"(a) F-nef scan: min {rep.fnef.min_value} over {count_fcurves(12)} curves, "
              f"{rep.fnef.zero_count} zeros -> {'ok' if rep.fnef.nonnegative else 'FAIL'}")
        print(f"(b) witness boundary minimum: {cert.boundary_min} -> "
              f"{'ok' if cert.boundary_min >= 0 else 'FAIL'}")
        print(f"(c) canonical pairing: {cert.canonical_pairing} -> "
              f"{'ok' if cert.canonical_pairing >= 0 else 'FAIL'}")
        print(f"(d) divisor pairing: {cert.pairing} -> "
              f"{'ok' if cert.pairing < 0 else 'FAIL'}")
        print(f"not-boundary certificate: {'ok' if cert.certified_with_canonical else 'FAIL'}")
        print(f"decomposition identity: {'ok' if rep.decomposition_equal else 'FAIL'}")
        print(f"verdict: {'VERIFIED' if rep.verified else 'FAILED'}")
    return EXIT_OK if rep.verified else EXIT_FAILED


def cmd_fcurves(args, manifest: Manifest) -> int:
    validate_n(args.n)
    if args.action == "count":
        with manifest.phase("count"):
            total = count_fcurves(args.n)
        if args.json:
            _emit_json({"n": args.n, "count": total}, manifest)
        else:
            print(total)
        return EXIT_OK
    if args.json:
        raise InvalidInputError("--json is for 'count'; 'enumerate' prints one curve a line")
    if args.limit is not None and args.limit < 0:
        raise InvalidInputError(f"--limit must be nonnegative, got {args.limit}")
    for curve in islice(enumerate_fcurves(args.n), args.limit):
        print(curve)
    return EXIT_OK


def cmd_pair(args, manifest: Manifest) -> int:
    bp = _load_biplane_arg(args, manifest)
    div = _load_divisor_arg(args, manifest, bp)
    with manifest.phase("pair"):
        if args.curve:
            value = pair_divisor_fcurve(div, parse_fcurve(args.curve, div.n))
        elif args.functional:
            functional = _read_input(
                args.functional, manifest, lambda text: functional_from_json_dict(json.loads(text))
            )
            value = pair_divisor_functional(div, functional)
        else:  # the biplane witness functional
            value = pair_divisor_functional(div, biplane_curve_functional(bp))
    if args.json:
        _emit_json({"n": div.n, "value": value}, manifest)
    else:
        print(value)
    return EXIT_OK


def cmd_extremal(args, manifest: Manifest) -> int:
    primes = args.prime or list(DEFAULT_PRIMES)
    manifest.primes = list(primes)
    for i, p in enumerate(primes):
        check_modulus(p)
        if p in primes[:i]:
            raise InvalidInputError(f"--prime {p} is given twice")
    for p in primes:
        if p < TINY_PRIME_BOUND:
            print(
                f"warning: prime {p} is small; a modular rank drop is more likely "
                f"(the certificate stays sound, rank can only drop)",
                file=sys.stderr,
            )
    div = _load_divisor_arg(args, manifest, _load_biplane_arg(args, manifest))
    with manifest.phase("rank"):
        rep = extremality_rank(div, primes=primes)
    fnef = rep.fnef
    if not fnef.nonnegative:
        if args.json:
            _emit_json({"fnef": _fnef_dict(fnef), "certified_extremal": False}, manifest)
        else:
            print(f"not F-nef: pairing {fnef.min_value} on {fnef.argmin}")
        return EXIT_FAILED
    if args.json:
        _emit_json(
            {
                "ambient_dim": rep.ambient_dim,
                "zero_set_size": rep.zero_set_size,
                "rank_mod_p": {str(p): r for p, r in rep.rank_mod_p.items()},
                "certified_extremal": rep.certified_extremal,
            },
            manifest,
        )
    else:
        ranks = ", ".join(f"rank {r} mod {p}" for p, r in rep.rank_mod_p.items())
        print(f"zero-pairing curves: {rep.zero_set_size}")
        print(f"{ranks} (ambient dimension {rep.ambient_dim})")
        print("extremal ray certified" if rep.certified_extremal else "NOT certified")
    return EXIT_OK if rep.certified_extremal else EXIT_FAILED


def cmd_pullback(args, manifest: Manifest) -> int:
    div = _load_divisor_arg(args, manifest, _load_biplane_arg(args, manifest))
    check_sample_count(args.spot_check)
    with manifest.phase("eliminate_psi"):
        boundary_form = eliminate_psi(div)
    with manifest.phase("pullback"):
        lifted = pullback_forgetful(boundary_form)
    scan = None
    if args.scan:
        with manifest.phase("scan"):
            scan = fnef_check(lifted)
    spot = None
    if args.spot_check is not None:
        with manifest.phase("spot_check"):
            spot = projection_formula_report(boundary_form, samples=args.spot_check)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(divisor_to_json_text(lifted))
    payload: dict = {"n": lifted.n, "support_size": lifted.support_size()}
    if scan is not None:
        payload["fnef"] = _fnef_dict(scan)
    if spot is not None:
        payload["projection_formula"] = asdict(spot)
    if args.json:
        if not args.out:
            payload["divisor"] = divisor_to_json_dict(lifted)
        _emit_json(payload, manifest)
    else:
        if not args.out:
            print(divisor_to_text(lifted), end="")
        if scan is not None:
            print(f"pullback F-nef scan at n={lifted.n}: min {scan.min_value}, "
                  f"{scan.zero_count} zeros -> {'ok' if scan.nonnegative else 'FAIL'}")
        if spot is not None:
            print(f"projection formula: {spot.mismatches} mismatches "
                  f"on {spot.total} curves ({spot.contracted} contracted)")
    ok = (scan is None or scan.nonnegative) and (spot is None or spot.ok)
    return EXIT_OK if ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    biplane = argparse.ArgumentParser(add_help=False)
    biplane.add_argument("--biplane", metavar="FILE",
                         help="biplane block file (its design axioms are checked)")
    one_thread = argparse.ArgumentParser(add_help=False)
    one_thread.add_argument("--threads", type=integer, choices=[1],
                            help="the scan runs on one thread; only 1 is accepted")

    divisor_common = argparse.ArgumentParser(add_help=False)
    source = divisor_common.add_mutually_exclusive_group()
    source.add_argument("--divisor", metavar="FILE",
                        help="divisor file (JSON or '<coeff> <subset>' lines)")
    source.add_argument("--named",
                        choices=["biplane", "symmetric", "block-star", "canonical"],
                        help="use a built-in divisor instead of a file (default biplane)")
    divisor_common.add_argument("--n", type=integer,
                                help="marking count for text divisor files and --named "
                                     "canonical (default 12); a JSON divisor file "
                                     "declares its own, which must match --n if given; "
                                     "the other named divisors are at 12")

    parser = argparse.ArgumentParser(
        prog="fnef",
        description="Exact divisor/curve intersection checks on moduli of "
                    "stable pointed rational curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("biplane", parents=[common, biplane],
                       help="construct/verify the biplane and count its symmetries")
    p.set_defaults(func=cmd_biplane)

    p = sub.add_parser("verify", parents=[common, biplane, one_thread],
                       help="run the full counterexample verification at n=12")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fcurves", parents=[common],
                       help="count or enumerate 4-block partition classes")
    p.add_argument("action", choices=["count", "enumerate"])
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--limit", type=integer, help="stop enumeration after this many curves")
    p.set_defaults(func=cmd_fcurves)

    p = sub.add_parser("pair", parents=[common, biplane, divisor_common],
                       help="pair a divisor with an F-curve or a curve functional")
    curve = p.add_mutually_exclusive_group()
    curve.add_argument("--curve", metavar="BLOCKS", help="F-curve like '1|2|3|4,5,...'")
    curve.add_argument("--functional", metavar="FILE", help="curve functional JSON file")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("extremal", parents=[common, biplane, one_thread, divisor_common],
                       help="certify extremality of an F-nef divisor by modular rank")
    p.add_argument("--prime", type=integer, action="append",
                   help="modulus for the rank computation (repeatable)")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("pullback", parents=[common, biplane, one_thread, divisor_common],
                       help="pull a divisor back along the forgetful map to n+1 markings")
    p.add_argument("--out", metavar="FILE", help="write the pulled-back divisor here")
    p.add_argument("--scan", action="store_true", help="F-nef scan at n+1")
    p.add_argument("--spot-check", type=integer, metavar="K",
                   help="projection-formula check on K sampled curves")
    p.set_defaults(func=cmd_pullback)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, Manifest(command=argv))
    except (InvalidInputError, MalformedInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except VerificationFailedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except FnefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
