"""Command-line entry point.

Exit codes: 0 success / verification passed, 1 usage error, 2 domain error
(DomainError or a subclass: invalid mathematical input, or an unreadable
file), 3 verification failure (a checked invariant did not hold).
"""

import argparse
import json
import sys

from .cremona_table import cremona_rank_bound
from .cyclotomic import cyclotomic_poly, reduce_mod, verify_lemma_range
from .errors import DomainError, VerificationError
from .ff_oracle import FiniteFieldTorus
from .intlinalg import IntMatrix
from .sweeps import (
    SWEEP_P,
    SWEEP_Q,
    oracle_single_check,
    run_oracle_sweep,
    sharpness_case,
    sharpness_sweep,
)
from .torus_rank import GaloisTorusPresentation, fixed_point_rank, multiplicity_chain_check
from .weyl_audit import audit_pgl4

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_SCHEMA_KEYS = {"dimension", "q", "sigma", "chi_order"}


def load_input_file(path: str) -> dict:
    """Shared schema for torus inputs: integer dimension/q, sigma as an
    array of integer rows, optional chi_order. Unknown fields are rejected,
    booleans are not integers, and a given dimension must match sigma.
    Bytes that are not UTF-8 JSON, and nesting too deep to parse, are
    domain errors too."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"{path} is not a readable JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError("input file must contain a JSON object")
    unknown = set(doc) - _SCHEMA_KEYS
    if unknown:
        raise DomainError(f"unknown fields in input file: {sorted(unknown)}")
    if "sigma" not in doc:
        raise DomainError("input file is missing the sigma matrix")
    if not (
        isinstance(doc["sigma"], list)
        and all(
            isinstance(row, list) and all(type(x) is int for x in row)
            for row in doc["sigma"]
        )
    ):
        raise DomainError("sigma must be an array of arrays of integers")
    for key in ("dimension", "q", "chi_order"):
        if key in doc and type(doc[key]) is not int:
            raise DomainError(f"{key} must be an integer")
    if "dimension" in doc and doc["dimension"] != len(doc["sigma"]):
        raise DomainError("dimension must equal the number of rows of sigma")
    return doc


def load_presentation(path: str) -> GaloisTorusPresentation:
    doc = load_input_file(path)
    for key in ("dimension", "chi_order"):
        if key not in doc:
            raise DomainError(f"torus presentation file requires field {key!r}")
    return GaloisTorusPresentation(
        dimension=doc["dimension"],
        sigma=IntMatrix(doc["sigma"]),
        chi_order=doc["chi_order"],
    )


def load_ff_torus(path: str) -> FiniteFieldTorus:
    doc = load_input_file(path)
    if "q" not in doc:
        raise DomainError("finite-field torus file requires field 'q'")
    return FiniteFieldTorus(q=doc["q"], sigma=IntMatrix(doc["sigma"]))


def _parse_primes(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad prime list {text!r}") from exc


# Each handler returns (inputs, results, pass or None, text lines); main
# renders them in the chosen format and maps a failed pass to exit code 3.


def cmd_cyclotomic(args):
    poly = cyclotomic_poly(args.n)
    results = {
        "n": args.n,
        "degree": poly.degree,
        "coefficients": list(poly.coeffs),
        "polynomial": str(poly),
    }
    lines = [f"Phi_{args.n} = {poly}", f"degree {poly.degree}"]
    if args.p is not None:
        reduced = reduce_mod(poly, args.p)
        results["modulus"] = args.p
        results["reduced_coefficients"] = list(reduced.coeffs)
        lines.append(f"mod {args.p}: {reduced}")
    return {"n": args.n, "p": args.p}, results, None, lines


def cmd_lemma(args):
    primes = _parse_primes(args.primes)
    report = verify_lemma_range(args.max_n, primes)
    lines = [
        f"lemma sweep: n <= {args.max_n}, primes {list(primes)}",
        f"checks run: {report.checks_run}",
        f"counterexamples: {len(report.counterexamples)}",
        "PASS" if report.passed else "FAIL",
    ]
    for ce in report.counterexamples:
        lines.append(f"  counterexample: {ce}")
    inputs = {"max_n": args.max_n, "primes": list(primes)}
    return inputs, report.to_dict(), report.passed, lines


def cmd_bound(args):
    bound = cremona_rank_bound(args.p, args.t)
    lines = [
        f"p = {bound.p}  t = {bound.t}  rank bound = {bound.rank_bound}",
        f"attained by: {bound.attained_by}",
    ]
    return {"p": args.p, "t": args.t}, bound.to_dict(), None, lines


def cmd_torus_rank(args):
    pres = load_presentation(args.file)
    cert = fixed_point_rank(pres, args.p)
    chain = multiplicity_chain_check(pres, args.p)
    results = {
        "dimension": pres.dimension,
        "chi_order": pres.chi_order,
        "certificate": cert.to_dict(),
        "multiplicity_chain": chain.to_dict(),
    }
    lines = [
        f"dimension {pres.dimension}, character order {pres.chi_order}, p = {args.p}",
        f"upper bound floor(d/phi(t)) = {cert.upper_bound}",
        f"eigenspace rank at eps = {cert.eps_used}: {cert.eigenspace_rank}",
        f"char poly indices: {list(cert.char_poly_indices)}",
        f"multiplicity chain: {'PASS' if chain.passed else 'FAIL'}",
    ]
    return {"file": args.file, "p": args.p}, results, chain.passed, lines


def cmd_oracle(args):
    if args.file:
        if args.p is None:
            raise DomainError("oracle --file requires --p")
        tor = load_ff_torus(args.file)
        result = oracle_single_check(tor, args.p)
        lines = [
            f"T(F_{result['q']}), dimension {tor.dimension}, p = {result['p']}",
            f"invariant factors: {result['invariant_factors']}",
            f"group order: {result['group_order']}",
            f"p-elementary rank: {result['p_elementary_rank']}",
            f"eigenspace dim:    {result['kernel_dim']}",
            f"rank bound:        {result['rank_bound']}",
            "PASS" if result["ok"] else "FAIL",
        ]
        return {"file": args.file, "p": args.p}, result, result["ok"], lines
    qs = (args.q,) if args.q is not None else SWEEP_Q
    ps = (args.p,) if args.p is not None else SWEEP_P
    summary = run_oracle_sweep(args.count, args.seed, qs=qs, ps=ps)
    passed = not summary["violations"]
    lines = [
        f"oracle sweep: {summary['tori']} tori, {summary['checks']} checks, seed {args.seed}",
        f"violations: {len(summary['violations'])}",
        "PASS" if passed else "FAIL",
    ]
    for v in summary["violations"]:
        lines.append(f"  violation: {v}")
    inputs = {"count": args.count, "seed": args.seed, "q": args.q, "p": args.p}
    return inputs, summary, passed, lines


def cmd_sharpness(args):
    if (args.d is None) != (args.t is None):
        raise DomainError("sharpness needs both --d and --t, or neither for a sweep")
    if args.d is not None:
        cases = [sharpness_case(args.d, args.t)]
    else:
        cases = sharpness_sweep()
    passed = all(c["attained"] for c in cases)
    lines = [f"{'d':>2} {'t':>2} {'p':>3} {'q':>3} {'bound':>5} {'rank':>4} {'oracle':>6}"]
    for c in cases:
        lines.append(
            f"{c['d']:>2} {c['t']:>2} {c['p']:>3} {c['q']:>3} "
            f"{c['rank_bound']:>5} {c['eigenspace_rank']:>4} {c['oracle_rank']:>6}"
            + ("" if c["attained"] else "  GAP")
        )
    lines.append("PASS" if passed else "FAIL")
    return {"d": args.d, "t": args.t}, {"cases": cases}, passed, lines


def cmd_weyl_audit(args):
    report = audit_pgl4(args.p)
    lines = [
        f"Weyl group of PGL4: {len(report.elements)} elements, p = {report.p}",
        f"max multiplicity of -1 mod {report.p}: {report.max_minus_one_multiplicity}",
        f"violations: {len(report.violations)}",
        "PASS" if report.passed else "FAIL",
    ]
    return {"p": args.p}, report.to_dict(), report.passed, lines


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cremona-bounds",
        description="Exact rank-bound machinery for p-elementary subgroups of "
        "the plane Cremona group: cyclotomic arithmetic, torus torsion bounds, "
        "a finite-field oracle, and the Weyl-group audit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=func)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    sp = add("cyclotomic", cmd_cyclotomic, help="compute a cyclotomic polynomial")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, default=None, help="also reduce mod p")

    sp = add("lemma", cmd_lemma, help="sweep the root-multiplicity lemma")
    sp.add_argument("--max-n", type=int, default=60)
    sp.add_argument("--primes", type=str, default="2,3,5,7,11,13")

    sp = add("bound", cmd_bound, help="Cremona rank bound for (p, t)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)

    sp = add("torus-rank", cmd_torus_rank, help="rank certificate for a torus file")
    sp.add_argument("--file", type=str, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = add("oracle", cmd_oracle, help="finite-field oracle check or sweep")
    sp.add_argument("--file", type=str, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("sharpness", cmd_sharpness, help="verify bound attainment")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)

    sp = add("weyl-audit", cmd_weyl_audit, help="audit the Weyl group of PGL4")
    sp.add_argument("--p", type=int, default=3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, results, passed, lines = args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    if args.format == "json":
        doc = {"command": args.subcommand, "inputs": inputs, "results": results}
        if passed is not None:
            doc["pass"] = passed
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return EXIT_VERIFICATION if passed is False else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
