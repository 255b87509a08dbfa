"""The four benchmark workloads.

A workload yields its operations one cycle at a time. A cycle is a fixed
multiset of operation shapes (sizes, index shapes, subcommands) whose
parameters the seed draws, in an order the seed shuffles, and it starts
from cold library caches; runs repeat whole cycles, so every run sees the
same mix and its statistics do not depend on where a time limit cut the
stream or on how many cycles fitted. Each operation is a `run` callable, which is
timed, and a `check` callable, which is not: it compares the output with a
value the benchmark computed by its own route (see gen.py) and returns an
error string or None.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen

CLI_DEADLINE_S = 20.0


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable
    prepare: Optional[Callable] = None


def cycle_rng(name, seed, k):
    return random.Random(f"{name}:{seed}:{k}")


def phi_poly_value(indices, q):
    """prod Phi_m(q): the order of T(F_q) for a torus whose Frobenius has
    characteristic polynomial prod Phi_m (every Phi_m(q) > 0 for q >= 2)."""
    out = 1
    for m in indices:
        out *= sum(c * q**i for i, c in enumerate(gen.cyclotomic_coeffs(m)))
    return out


def first_error(*pairs):
    """The message of the first (ok, message) pair whose ok is false."""
    for ok, message in pairs:
        if not ok:
            return message
    return None


class Workload:
    """A named, seeded stream of cycles. `setup` makes cycle 0, so that
    input generation counts as set-up; `cb` is the library module when it
    is imported in this process."""

    name = ""
    policy = ""
    cb = None

    def __init__(self, root, seed):
        self.root = Path(root)
        self.seed = seed
        self._first = None

    def ops(self, k):
        if k == 0 and self._first is not None:
            ops, self._first = self._first, None
            return ops
        return self.cycle(k)


class InProcess(Workload):
    """Base for workloads that call the library in this process."""

    ledger = None

    def setup(self):
        import cremona_bounds

        self.cb = cremona_bounds
        self._first = self.cycle(0)

    def start_pass(self, ledger):
        self.ledger = ledger

    def start_cycle(self):
        self.ledger.clear()


# --------------------------------------------------------------- torus-large

# Every t with phi(t) <= 2: the character orders the rank table and the
# sharpness sweep of the CLI use.
TORUS_TS = (1, 2, 3, 4, 6)
# One cycle, as (d, count): every d from 8 to 32, then 40 and the cap of 64,
# with fewer ops as d and the cost grow. No recorded traffic exists at these
# sizes (the CLI's sweeps stop at d = 6), so the mix is a design choice. A
# cycle takes 13-17 s on a 2-vCPU machine, and the single d = 64 op is
# about a third of that. Neighbouring sizes differ in cost by 10-30%, so no
# large group of equal ops sits at the median (d = 15) or at the tail
# (d = 28): when the machine's speed changes during a run, those statistics
# then move with the share of ops it slowed rather than jump from one speed
# to the other.
TORUS_SIZES = ([(d, 6) for d in range(8, 16)] + [(d, 3) for d in range(16, 24)]
               + [(d, 2) for d in range(24, 33)] + [(40, 1), (64, 1)])
# One slot per op, as (d, t, bits of p, bits of q). The block structure of
# each slot is fixed; the seed draws the change of basis, p and q. t cycles
# through TORUS_TS, and the sizes of p and q grow with d, from 3 bits to 31
# bits and from 2 bits to 20 bits.
_DS = [d for d, count in TORUS_SIZES for _ in range(count)]
TORUS_SLOTS = [(d, TORUS_TS[i % 5], 3 + 28 * i // (len(_DS) - 1),
                2 + 18 * i // (len(_DS) - 1)) for i, d in enumerate(_DS)]


class TorusLarge(InProcess):
    name = "torus-large"
    policy = ("library caches cleared at the start of each cycle, then kept "
              "warm across its operations")

    def cycle(self, k):
        rng = cycle_rng(self.name, self.seed, k)
        ops = []
        for slot, (d, t, p_bits, q_bits) in enumerate(TORUS_SLOTS):
            p = gen.random_prime(rng, p_bits, t)
            q = gen.random_prime_power(rng, q_bits, p)
            shape = random.Random(f"{self.name}:shape:{slot}")
            rows, indices = gen.finite_order_matrix(rng, d, d, shape)
            ops.append(self._op(d, t, p, q, rows, indices))
        rng.shuffle(ops)
        return ops

    def _op(self, d, t, p, q, rows, indices):
        cb = self.cb

        def run():
            m = cb.IntMatrix(rows)
            pres = cb.GaloisTorusPresentation(d, m, t)
            cert = cb.fixed_point_rank(pres, p)
            chain = cb.multiplicity_chain_check(pres, p)
            tor = cb.FiniteFieldTorus(q, m)
            inv = cb.rational_points_structure(tor)
            prank = cb.p_elementary_rank(inv, p)
            kdim = cb.kernel_dim_mod_p(tor.point_matrix(), p)
            return cert, chain, inv, prank, kdim, cb.group_order(tor)

        bound = d // gen.phi(t)
        oracle_bound = d // gen.phi(gen.order_mod(q % p, p))
        order = phi_poly_value(indices, q)

        def check(out):
            cert, chain, inv, prank, kdim, group_order = out
            return first_error(
                (tuple(cert.char_poly_indices) == indices,
                 f"char_poly_indices {cert.char_poly_indices} != {indices}"),
                (cert.upper_bound == bound, f"upper_bound {cert.upper_bound} != {bound}"),
                (cert.eigenspace_rank <= bound, "eigenspace_rank exceeds the bound"),
                (chain.passed, f"multiplicity chain violations {chain.violations}"),
                (len(inv) == d and prank == kdim,
                 f"p-elementary rank {prank} != kernel dim {kdim}"),
                (prank <= oracle_bound, "oracle rank exceeds the bound"),
                (group_order == math.prod(inv) == order,
                 "group order, invariant product and prod Phi_m(q) differ"),
            )

        return Op(f"torus d={d} t={t}", run, check)


# ---------------------------------------------------------- cyclotomic-large

# Squarefree indices with 4 or 5 prime factors: Phi_n by the exact-division
# recursion dominates. The identity checked is Phi_{m l} = Phi_m^(l-1) mod l
# with l the largest prime factor of n and m = n / l.
SQUAREFREE = [1155, 1290, 1365, 1430, 1610, 1785, 1806, 1995, 2145, 2310, 2730,
              3003, 3315, 3570, 4290, 6006]
# (n, small prime s not dividing n): a large prime-power part over a small
# radical, so Phi_n is cheap and the products Phi_n^(s-1) mod s take
# operands of 4k-15k coefficients. The identity checked is
# Phi_{n s} = Phi_n^(s-1) mod s.
PRIME_POWER = [(8192, 3), (16384, 3), (15625, 3), (16807, 3), (10000, 3),
               (20000, 3), (12288, 5), (6561, 5), (7203, 5)]
# (n, p, s) with n = t * p^f for a t dividing p - 1, so some order-t
# multiplicity is positive.
POSITIVE = [(14406, 7, 5), (12500, 5, 3), (13122, 3, 5)]
# p = 1 mod 12 and no other t <= 12 divides p - 1: every seed checks the
# same orders t in {1, 2, 3, 4, 6, 12}. The smallest such primes are 13, 157
# and 229, so bit lengths start at 8.
OTHER_TS = (5, 7, 8, 9, 11)


def lemma_prime(rng, bits, n):
    while True:
        p = gen.random_prime(rng, bits, 12)
        if n % p and all((p - 1) % t for t in OTHER_TS):
            return p


def t_times_p_power(n, t, p):
    """f >= 0 with n = t * p^f, or None."""
    if n % t:
        return None
    rest, f = n // t, 0
    while rest % p == 0:
        rest //= p
        f += 1
    return f if rest == 1 else None


class CyclotomicLarge(InProcess):
    name = "cyclotomic-large"
    policy = ("cyclotomic_poly, factorize and is_prime caches cleared before "
              "every operation, as in a fresh CLI process")

    def cycle(self, k):
        rng = cycle_rng(self.name, self.seed, k)
        ops = []
        slots = [(n, None, None) for n in SQUAREFREE]
        slots += [(n, None, s) for n, s in PRIME_POWER] + POSITIVE
        for i, (n, p, s) in enumerate(slots):
            if p is None:
                p = lemma_prime(rng, 8 + (i * 7) % 24, n)
            if s is None:
                ell = gen.factor(n)[-1][0]
                ident = (n // ell, ell)
            else:
                ident = (n, s)
            ops.append(self._op(n, p, ident))
        rng.shuffle(ops)
        return ops

    def _op(self, n, p, ident):
        cb = self.cb
        ts = [t for t in range(1, 13) if (p - 1) % t == 0]
        m, s = ident

        def run():
            f = cb.cyclotomic_poly(n)
            fbar = cb.reduce_mod(f, p)
            mults = [cb.order_t_multiplicity(n, p, t) for t in ts]
            lifted = cb.reduce_mod(cb.cyclotomic_poly(m * s), s)
            same = lifted == cb.reduce_mod(cb.cyclotomic_poly(m), s) ** (s - 1)
            return f, fbar, mults, same

        fac = gen.factor(n)
        value_at_1 = fac[0][0] if len(fac) == 1 else 1
        expected = []
        for t in ts:
            f_exp = t_times_p_power(n, t, p)
            expected.append(0 if f_exp is None else gen.phi(p**f_exp))

        def check(out):
            f, fbar, mults, same = out
            c = f.coeffs
            return first_error(
                (f.degree == gen.phi(n), f"deg Phi_{n} = {f.degree} != phi(n)"),
                (c == c[::-1], f"Phi_{n} is not palindromic"),
                (sum(c) == value_at_1, f"Phi_{n}(1) = {sum(c)} != {value_at_1}"),
                (fbar.coeffs == tuple(x % p for x in c), f"Phi_{n} mod {p} is wrong"),
                (mults == expected, f"order-t multiplicities {mults} != {expected}"),
                (same, f"Phi_{m * s} != Phi_{m}^{s - 1} mod {s}"),
            )

        return Op(f"cyclotomic n={n}", run, check, prepare=lambda: self.ledger.clear())


# --------------------------------------------------------------- sweep-small

SWEEP_Q = (2, 3, 4, 5, 7, 8, 9)
SWEEP_P = (2, 3, 5, 7, 11, 13)
# The (p, t) -> rank table of the paper, eq. (11).
EQ11_TABLE = [(2, 1, 4), (3, 1, 3), (3, 2, 2), (5, 1, 2), (5, 2, 2), (7, 3, 1),
              (13, 4, 1), (7, 6, 1), (11, 5, 0)]
# One cycle is one run of the CLI's default sweeps, which are the traffic of
# the acceptance tests: `lemma` (all 360 cells n <= 60, p in SWEEP_P),
# `oracle` (200 tori of d <= 6, every (q, p) with p not dividing q),
# `sharpness` (the 27 cases t in TORUS_TS, phi(t) <= d <= 6), `weyl-audit`
# (p = 3) and one pass over the eq. (11) table. Each cell, torus, case,
# audit and table pass is one operation. The seed draws the tori and
# shuffles the order. Each cycle starts cold, so the costliest cells
# (p = 13, large n) recur the same way in every cycle.
LEMMA_CELLS = [(n, p) for p in SWEEP_P for n in range(1, 61)]
ORACLE_TORI = 200
SHARP_CASES = [(d, t) for t in TORUS_TS for d in range(gen.phi(t), 7)]
WEYL_P = 3


def smallest_prime_1_mod(t):
    p = 2
    while not (gen.is_prime(p) and (p - 1) % t == 0):
        p += 1
    return p


def smallest_field_of_order(p, t):
    q = 2
    while not (q % p and gen.prime_power_base(q) and gen.order_mod(q % p, p) == t):
        q += 1
    return q


class SweepSmall(InProcess):
    name = "sweep-small"
    policy = ("library caches cleared at the start of each cycle and filled "
              "during it: one cycle is one sweep")

    def cycle(self, k):
        rng = cycle_rng(self.name, self.seed, k)
        ops = [self._lemma(n, p) for n, p in LEMMA_CELLS]
        ops += [self._oracle(rng) for _ in range(ORACLE_TORI)]
        ops += [self._sharpness(d, t) for d, t in SHARP_CASES]
        ops += [self._weyl(WEYL_P), self._table()]
        rng.shuffle(ops)
        return ops

    def _oracle(self, rng):
        cb = self.cb
        d = rng.randint(1, 6)
        rows, indices = gen.finite_order_matrix(rng, d, 3 * d)
        pairs = [(q, p) for q in SWEEP_Q for p in SWEEP_P if q % p]

        def run():
            m = cb.IntMatrix(rows)
            out = []
            for q in SWEEP_Q:
                tor = cb.FiniteFieldTorus(q, m)
                inv = cb.rational_points_structure(tor)
                for p in SWEEP_P:
                    if q % p == 0:
                        continue
                    prank = cb.p_elementary_rank(inv, p)
                    kdim = cb.kernel_dim_mod_p(tor.point_matrix(), p)
                    t = cb.t_of_finite_field(q, p)
                    out.append((q, p, inv, prank, kdim, t, cb.theorem_bound(d, t)))
            return out

        orders = {q: phi_poly_value(indices, q) for q in SWEEP_Q}

        def check(out):
            if [(q, p) for q, p, *_ in out] != pairs:
                return f"{len(out)} checks run, {len(pairs)} expected"
            for q, p, inv, prank, kdim, t, bound in out:
                err = first_error(
                    (prank == kdim and prank <= bound,
                     f"violation at q={q} p={p}: rank {prank} kdim {kdim} bound {bound}"),
                    (t == gen.order_mod(q % p, p) and bound == d // gen.phi(t),
                     f"t or bound wrong at q={q} p={p}"),
                    (math.prod(inv) == orders[q], f"|T(F_{q})| wrong"),
                )
                if err:
                    return err
            return None

        return Op(f"oracle d={d}", run, check)

    def _lemma(self, n, p):
        cb = self.cb
        ts = gen.divisors(p - 1)

        def run():
            pbar = cb.reduce_mod(cb.cyclotomic_poly(n), p)
            mults = [[cb.root_multiplicity(pbar, eps)
                      for eps in cb.numth.residues_of_order(p, t)] for t in ts]
            lifts = []
            if n % p:
                for f in (1, 2):
                    lifted = cb.reduce_mod(cb.cyclotomic_poly(n * p**f), p)
                    lifts.append(lifted == pbar ** gen.phi(p**f))
            return mults, lifts

        expected = []
        for t in ts:
            f_exp = t_times_p_power(n, t, p)
            expected.append([0 if f_exp is None else gen.phi(p**f_exp)] * gen.phi(t))

        def check(out):
            mults, lifts = out
            return first_error(
                (mults == expected, f"multiplicities {mults} != {expected} (n={n}, p={p})"),
                (lifts == ([True, True] if n % p else []),
                 f"prime-power identity failed (n={n}, p={p})"),
            )

        return Op(f"lemma n={n} p={p}", run, check)

    def _sharpness(self, d, t):
        cb = self.cb
        p = smallest_prime_1_mod(t)
        q = smallest_field_of_order(p, t)

        def run():
            pres = cb.sharp_construction(d, t)
            cert = cb.fixed_point_rank(pres, p)
            tor = cb.FiniteFieldTorus(q, pres.sigma)
            return cert, cb.p_elementary_rank(cb.rational_points_structure(tor), p)

        bound = d // gen.phi(t)

        def check(out):
            cert, oracle_rank = out
            ranks = (cert.upper_bound, cert.eigenspace_rank, oracle_rank)
            return first_error((ranks == (bound,) * 3, f"bound not attained: {ranks}"))

        return Op(f"sharpness d={d} t={t}", run, check)

    def _weyl(self, p):
        cb = self.cb

        def run():
            return cb.audit_pgl4(p)

        def check(rep):
            return first_error(
                (rep.passed and len(rep.elements) == 24, "Weyl audit failed"),
                # double transpositions act with eigenvalues (1, -1, -1)
                (rep.max_minus_one_multiplicity == 2, "max multiplicity of -1 != 2"),
            )

        return Op(f"weyl p={p}", run, check)

    def _table(self):
        cb = self.cb
        expected = [r for *_, r in EQ11_TABLE]

        def run():
            return [cb.cremona_rank_bound(p, t).rank_bound for p, t, _ in EQ11_TABLE]

        def check(out):
            return first_error((out == expected, f"rank table {out} != {expected}"))

        return Op("table", run, check)


# ----------------------------------------------------------------------- cli

# The fixed corpus: every subcommand in JSON on small inputs, plus one exit
# code from the documented contract. Input files are written by the
# benchmark; paths are relative to the working directory so stdout is stable.
# The input sizes are graded, so the latencies spread from start-up alone to
# about twice that: no large group of equal invocations sits at the median,
# which then moves with the share of invocations a change of the machine's
# speed slowed rather than jump from one speed to the other.
CORPUS_FILES = {
    "torus4.json": {"dimension": 4, "chi_order": 5,
                    "sigma": [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]},
    "ff2.json": {"q": 4, "sigma": [[0, -1], [1, -1]]},
}
CORPUS = [
    ("bound --p 3 --t 1", 0),
    ("bound --p 13 --t 4", 0),
    ("bound --p 7 --t 5", 2),
    ("cyclotomic --n 105 --p 7", 0),
    ("cyclotomic --n 1155", 0),
    ("cyclotomic --n 1365 --p 13", 0),
    ("cyclotomic --n 2310", 0),
    ("cyclotomic --n 3003", 0),
    ("lemma --max-n 12 --primes 2,3,5", 0),
    ("lemma --max-n 24 --primes 2,3,5,7", 0),
    ("lemma --max-n 40 --primes 5,7,11", 0),
    ("torus-rank --file torus4.json --p 11", 0),
    ("torus-rank --file torus4.json --p 31", 0),
    ("oracle --file ff2.json --p 3", 0),
    ("oracle --count 5 --seed 0", 0),
    ("oracle --count 10 --seed 1", 0),
    ("oracle --count 25 --seed 2", 0),
    ("oracle --count 50 --seed 3", 0),
    ("sharpness --d 4 --t 3", 0),
    ("sharpness --d 6 --t 6", 0),
    ("sharpness", 0),
    ("weyl-audit --p 3", 0),
    ("weyl-audit --p 7", 0),
    ("weyl-audit --p 13", 0),
]
# README-range probes kept out of the timed stream: run once per traced run
# with the same deadline, reported whether they finish or not. Each may cost
# a whole deadline, so the untraced runs that give the end-to-end metrics
# skip them.
LIMIT_PROBES = ["cyclotomic --n 510510"]
GOLDEN = Path(__file__).with_name("golden.json")


def corpus_key(args):
    return f"{args} --format json"


def exit_error(rc, late, code=0):
    if late:
        return f"deadline of {CLI_DEADLINE_S} s missed"
    if rc != code:
        return f"exit code {rc}, expected {code}"
    return None


def child_env(root):
    """The environment of a child that imports the library from root/src."""
    return dict(os.environ, PYTHONPATH=str(Path(root) / "src"))


def run_child(cmd, cwd, env, deadline=CLI_DEADLINE_S):
    """Run one child to completion or to the deadline; always reaped."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=deadline)
        return proc.returncode, out, False
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return proc.returncode, b"", True


class Cli(Workload):
    """One `cremona_bounds.cli` child process per operation, start-up
    included, one child at a time."""

    name = "cli"
    policy = "every operation is a fresh process, so every cache starts cold"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.work = self.root / "bench" / "out" / "cli-work"
        self.env = child_env(self.root)
        self.traced = False
        self.child_totals = []

    def write_corpus_files(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for name, doc in CORPUS_FILES.items():
            (self.work / name).write_text(json.dumps(doc))

    def setup(self):
        self.write_corpus_files()
        self.golden = json.loads(GOLDEN.read_text())
        self._first = self.cycle(0)
        # warm-up: one child, so the first timed one does not pay a cold
        # page cache
        run_child(self.command("bound --p 3 --t 1 --format json"), self.work, self.env)

    def start_pass(self, ledger):
        self.child_totals = []

    def start_cycle(self):
        pass

    def command(self, args, totals_path=None):
        if totals_path is None:
            return [sys.executable, "-m", "cremona_bounds.cli", *args.split()]
        shim = str(self.root / "bench" / "cli_shim.py")
        return [sys.executable, shim, str(totals_path), *args.split()]

    def _child(self, args):
        totals = None
        if self.traced:
            totals = self.work / f"totals-{len(self.child_totals)}.json"
            self.child_totals.append(totals)
        return run_child(self.command(args, totals), self.work, self.env)

    def cycle(self, k):
        rng = cycle_rng(self.name, self.seed, k)
        ops = [self._corpus_op(args, code) for args, code in CORPUS]
        ops += [self._torus_op(rng, k), self._oracle_op(rng, k)]
        rng.shuffle(ops)
        return ops

    def _corpus_op(self, args, code):
        key = corpus_key(args)
        want = self.golden[key]

        def check(out):
            rc, stdout, late = out
            return exit_error(rc, late, code) or first_error(
                (hashlib.sha256(stdout).hexdigest() == want, "stdout differs from golden"))

        return Op(key, lambda: self._child(key), check)

    def _large_case(self, rng, k, kind):
        t = rng.choice(TORUS_TS)
        p = gen.random_prime(rng, 31, t)
        shape = random.Random(f"{self.name}:shape:{kind}")
        rows, indices = gen.finite_order_matrix(rng, 64, 64, shape)
        name = f"{kind}64-{k}.json"
        return t, p, rows, indices, name

    def _torus_op(self, rng, k):
        t, p, rows, indices, name = self._large_case(rng, k, "torus")
        (self.work / name).write_text(
            json.dumps({"dimension": 64, "sigma": rows, "chi_order": t}))
        key = f"torus-rank --file {name} --p {p} --format json"
        bound = 64 // gen.phi(t)

        def check(out):
            rc, stdout, late = out
            if err := exit_error(rc, late):
                return err
            doc = json.loads(stdout)
            cert = doc["results"]["certificate"]
            return first_error(
                (tuple(cert["char_poly_indices"]) == indices, "char_poly_indices differ"),
                (cert["upper_bound"] == bound >= cert["eigenspace_rank"],
                 "eigenspace rank or bound wrong"),
                (doc["pass"] is True, "multiplicity chain failed"),
            )

        return Op("torus-rank d=64", lambda: self._child(key), check)

    def _oracle_op(self, rng, k):
        t, p, rows, indices, name = self._large_case(rng, k, "ff")
        q = gen.random_prime_power(rng, 20, p)
        (self.work / name).write_text(json.dumps({"q": q, "sigma": rows}))
        key = f"oracle --file {name} --p {p} --format json"
        order = phi_poly_value(indices, q)
        oracle_bound = 64 // gen.phi(gen.order_mod(q % p, p))

        def check(out):
            rc, stdout, late = out
            if err := exit_error(rc, late):
                return err
            res = json.loads(stdout)["results"]
            return first_error(
                (res["p_elementary_rank"] == res["kernel_dim"] <= oracle_bound,
                 "oracle rank differs from kernel dim or exceeds the bound"),
                (res["group_order"] == math.prod(res["invariant_factors"]) == order,
                 "group order, invariant product and prod Phi_m(q) differ"),
                (res["ok"] is True, "oracle check failed"),
            )

        return Op("oracle --file d=64", lambda: self._child(key), check)

    def record_golden(self):
        """Write the sha256 of the stdout of every corpus invocation."""
        self.write_corpus_files()
        golden = {}
        for args, code in CORPUS:
            key = corpus_key(args)
            rc, stdout, late = run_child(self.command(key), self.work, self.env)
            if late or rc != code:
                raise SystemExit(f"{key}: exit code {rc}, expected {code}")
            golden[key] = hashlib.sha256(stdout).hexdigest()
        GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
        return len(golden)

    def limit_probes(self):
        out = []
        for args in LIMIT_PROBES:
            cmd = self.command(f"{args} --format json")
            t0 = time.perf_counter()
            rc, _, late = run_child(cmd, self.work, self.env)
            out.append({"probe": args, "deadline_s": CLI_DEADLINE_S,
                        "finished": not late, "exit_code": None if late else rc,
                        "elapsed_s": time.perf_counter() - t0})
        return out


WORKLOADS = {w.name: w for w in (TorusLarge, CyclotomicLarge, SweepSmall, Cli)}
