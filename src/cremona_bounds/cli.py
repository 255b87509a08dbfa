"""Command-line entry point.

Exit codes: 0 success / verification passed, 1 usage error, 2 domain error
(DomainError or a subclass: invalid mathematical input, or an unreadable
file) or an output error (stdout cannot be written, e.g. a full disk), 3
verification failure (a checked invariant did not hold). A reader that
closes the pipe early ends the output quietly, with the result's own exit
code; neither case prints a traceback.

Each handler returns (inputs, results, pass) and builds no text; pass is
None for a plain computation. `main` is the one renderer: JSON is the object
{command, inputs, results, pass?}, text is one `key: value` line per result
field (strings as they are, other values as JSON), then PASS or FAIL.

Each handler imports the layers it runs: a subcommand loads those and the
shared core (numth, cyclotomic) and nothing else. `torus-rank` runs the
multiplicity chain once, which lists the order-t residues and takes the
kernels, and reads its rank certificate from the chain's report.
"""

import argparse
import json
import os
import sys

from .cyclotomic import cyclotomic_poly, reduce_mod, verify_cyclotomic, verify_lemma_range
from .errors import DomainError, VerificationError

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


def load_presentation(path: str) -> "GaloisTorusPresentation":
    from .intlinalg import IntMatrix
    from .torus_rank import GaloisTorusPresentation

    doc = load_input_file(path)
    for key in ("dimension", "chi_order"):
        if key not in doc:
            raise DomainError(f"torus presentation file requires field {key!r}")
    return GaloisTorusPresentation(
        dimension=doc["dimension"],
        sigma=IntMatrix(doc["sigma"]),
        chi_order=doc["chi_order"],
    )


def load_ff_torus(path: str) -> "FiniteFieldTorus":
    from .ff_oracle import FiniteFieldTorus
    from .intlinalg import IntMatrix

    doc = load_input_file(path)
    if "q" not in doc:
        raise DomainError("finite-field torus file requires field 'q'")
    return FiniteFieldTorus(q=doc["q"], sigma=IntMatrix(doc["sigma"]))


def _parse_primes(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad prime list {text!r}") from exc


def cmd_cyclotomic(args):
    poly = cyclotomic_poly(args.n)
    verify_cyclotomic(args.n, poly)
    results = {
        "n": args.n,
        "degree": poly.degree,
        "coefficients": list(poly.coeffs),
        "polynomial": str(poly),
    }
    if args.p is not None:
        results["modulus"] = args.p
        results["reduced_coefficients"] = list(reduce_mod(poly, args.p).coeffs)
    return {"n": args.n, "p": args.p}, results, None


def cmd_lemma(args):
    primes = _parse_primes(args.primes)
    report = verify_lemma_range(args.max_n, primes)
    inputs = {"max_n": args.max_n, "primes": list(primes)}
    return inputs, report.to_dict(), report.passed


def cmd_bound(args):
    from .cremona_table import cremona_rank_bound

    bound = cremona_rank_bound(args.p, args.t)
    return {"p": args.p, "t": args.t}, bound.to_dict(), None


def cmd_torus_rank(args):
    from .torus_rank import RankCertificate, multiplicity_chain_check

    pres = load_presentation(args.file)
    chain = multiplicity_chain_check(pres, args.p)
    results = {
        "dimension": pres.dimension,
        "chi_order": pres.chi_order,
        "certificate": RankCertificate.from_chain(pres, chain).to_dict(),
        "multiplicity_chain": chain.to_dict(),
    }
    return {"file": args.file, "p": args.p}, results, chain.passed


def cmd_oracle(args):
    from .sweeps import SWEEP_P, SWEEP_Q, oracle_single_check, run_oracle_sweep

    if args.file:
        if args.p is None:
            raise DomainError("oracle --file requires --p")
        if args.q is not None:
            raise DomainError("oracle --file takes q from the file, not from --q")
        result = oracle_single_check(load_ff_torus(args.file), args.p)
        return {"file": args.file, "p": args.p}, result, result["ok"]
    qs = (args.q,) if args.q is not None else SWEEP_Q
    ps = (args.p,) if args.p is not None else SWEEP_P
    summary = run_oracle_sweep(args.count, args.seed, qs=qs, ps=ps)
    inputs = {"count": args.count, "seed": args.seed, "q": args.q, "p": args.p}
    return inputs, summary, not summary["violations"]


def cmd_sharpness(args):
    from .sweeps import sharpness_case, sharpness_sweep

    if (args.d is None) != (args.t is None):
        raise DomainError("sharpness needs both --d and --t, or neither for a sweep")
    if args.d is not None:
        cases = [sharpness_case(args.d, args.t)]
    else:
        cases = sharpness_sweep()
    passed = all(c["attained"] for c in cases)
    return {"d": args.d, "t": args.t}, {"cases": cases}, passed


def cmd_weyl_audit(args):
    from .weyl_audit import audit_pgl4

    report = audit_pgl4(args.p)
    return {"p": args.p}, report.to_dict(), report.passed


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
        inputs, results, passed = args.func(args)
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
        text = json.dumps(doc, indent=2)
    else:
        lines = [f"{key}: {value if isinstance(value, str) else json.dumps(value)}"
                 for key, value in results.items()]
        if passed is not None:
            lines.append("PASS" if passed else "FAIL")
        text = "\n".join(lines)
    try:
        print(text, flush=True)
    except OSError as exc:
        # what stays buffered is flushed again at exit; the null device takes it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    return EXIT_VERIFICATION if passed is False else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
