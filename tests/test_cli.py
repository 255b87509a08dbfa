import hashlib
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cremona_bounds
from cremona_bounds import (
    cyclotomic,
    ff_oracle,
    intlinalg,
    sampling,
    sweeps,
    torus_rank,
    weyl_audit,
)
from cremona_bounds.cli import main
from cremona_bounds.cyclotomic import IntPoly, cyclotomic_poly
from cremona_bounds.intlinalg import IntMatrix
from cremona_bounds.numth import MAX_RESIDUES, divisors, euler_phi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def rendered_text(doc):
    """The text rendering of a JSON document: one `key: value` line per
    result field, strings as they are and other values as JSON, then
    PASS or FAIL when the document has a pass field."""
    lines = [f"{key}: {value if isinstance(value, str) else json.dumps(value)}"
             for key, value in doc["results"].items()]
    if "pass" in doc:
        lines.append("PASS" if doc["pass"] else "FAIL")
    return "".join(f"{line}\n" for line in lines)


def failed_check(capsys, *argv):
    """Run argv in JSON; assert exit 3 on a rendered report with pass false."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["pass"] is False
    return doc["results"]


class TestBound:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "bound", "--p", "3", "--t", "1")
        assert code == 0
        assert "rank_bound: 3\n" in out
        assert "attained_by: Fermat cubic surface, rank 3\n" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bound", "--p", "5", "--t", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "bound"
        assert doc["results"]["rank_bound"] == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "bound", "--p", "11", "--t", "3")
        assert code == 2
        assert "domain error" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--p", "3"])
        assert exc.value.code == 1


class TestCyclotomic:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "cyclotomic", "--n", "12")
        assert code == 0
        assert "X^4 - X^2 + 1" in out

    def test_with_reduction(self, capsys):
        code, out, _ = run(
            capsys, "cyclotomic", "--n", "6", "--p", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["reduced_coefficients"] == [1, 1, 1]

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "cyclotomic", "--n", "0")
        assert code == 2

    def test_large_squarefree_index(self, capsys):
        code, out, _ = run(
            capsys, "cyclotomic", "--n", "510510", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"]["degree"] == 92160

    # the first four each broke exactly one of the degree, palindromy and
    # value-at-1 checks that the identity replaced; Phi_12 = 1 - X^2 + X^4
    @pytest.mark.parametrize("n, coeffs, message", [
        (5, (1, 1, 1, 1, 1, 1), "Phi_5 is not Q(X^1) with Q = prod_(d | 5)"),
        (5, (1, 2, 0, 1, 1), "Phi_5 is not Q(X^1) with Q = prod_(d | 5)"),
        (5, (1, 0, 1, 0, 1), "Phi_5 is not Q(X^1) with Q = prod_(d | 5)"),
        (1, (1, 1), "Phi_1 is not Q(X^1) with Q = prod_(d | 1)"),
        (12, (1, 0, 0, 0, 1), "Phi_12 is not Q(X^2) with Q = prod_(d | 6)"),
        (12, (1, 1, -1, 0, 1), "Phi_12 is not Q(X^2) with Q = prod_(d | 6)"),
    ], ids=["degree", "palindrome", "value-at-1", "value-at-1-n1",
            "non-squarefree", "non-squarefree-stride"])
    def test_wrong_polynomial_exits_3(self, capsys, monkeypatch, n, coeffs, message):
        monkeypatch.setattr("cremona_bounds.cli.cyclotomic_poly", lambda n: IntPoly(coeffs))
        code, out, err = run(capsys, "cyclotomic", "--n", str(n), "--format", "json")
        assert code == 3
        assert out == ""
        assert "verification failure" in err and message in err

    def test_symmetric_pair_mutant_exits_3(self, capsys, monkeypatch):
        # +1 at i and deg - i, -1 at j and deg - j keeps the degree, the
        # palindromy and the value at 1, so only the identity sees it
        coeffs = list(cyclotomic_poly(3003).coeffs)
        deg = len(coeffs) - 1
        for i, delta in ((100, 1), (333, -1)):
            coeffs[i] += delta
            coeffs[deg - i] += delta
        assert deg == euler_phi(3003) and coeffs == coeffs[::-1] and sum(coeffs) == 1
        monkeypatch.setattr("cremona_bounds.cli.cyclotomic_poly", lambda n: IntPoly(coeffs))
        code, out, err = run(capsys, "cyclotomic", "--n", "3003", "--format", "json")
        assert (code, out) == (3, "")
        assert "verification failure: Phi_3003 is not Q(X^1)" in err


class TestLemma:
    def test_small_pass(self, capsys):
        code, out, _ = run(capsys, "lemma", "--max-n", "10", "--primes", "2,3,5")
        assert code == 0
        assert "PASS" in out

    def test_json_pass_field(self, capsys):
        code, out, _ = run(
            capsys, "lemma", "--max-n", "5", "--primes", "2,3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["results"]["counterexamples"] == []

    def test_bad_primes(self, capsys):
        code, _, err = run(capsys, "lemma", "--max-n", "5", "--primes", "2,4")
        assert code == 2

    def test_non_integer_prime(self, capsys):
        code, out, err = run(capsys, "lemma", "--max-n", "5", "--primes", "2,x")
        assert code == 2
        assert out == ""
        assert "bad prime list '2,x'" in err

    def test_max_n_past_index_cap_exits_2_at_once(self, capsys):
        # the sweep would build every Phi_n up to 10^6 before reaching n = 10^6 + 1
        t0 = time.perf_counter()
        code, out, err = run(capsys, "lemma", "--max-n", "1000001", "--primes", "2")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert "domain error" in err

    def test_counterexample_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_order_cell", lambda *args: (0, 0))
        results = failed_check(capsys, "lemma", "--max-n", "1", "--primes", "3")
        assert [c["fact"] for c in results["counterexamples"]] == ["positivity"]

    def test_lift_beyond_index_cap_is_skipped(self, capsys):
        # n * 1009^2 > 10^6, so only the f = 1 power identity is checked
        code, out, _ = run(
            capsys, "lemma", "--max-n", "3", "--primes", "1009", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["results"]["checks_run"] == 3 * (2 * len(divisors(1008)) + 1)


class TestTorusRank:
    def test_file_input(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "torus.json",
            {"dimension": 2, "sigma": [[0, -1], [1, 0]], "chi_order": 4},
        )
        code, out, _ = run(capsys, "torus-rank", "--file", path, "--p", "5")
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines()[:-1])
        assert json.loads(fields["certificate"])["eigenspace_rank"] == 1
        assert out.endswith("PASS\n")

    def test_json_output(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "torus.json",
            {"dimension": 1, "sigma": [[-1]], "chi_order": 2},
        )
        code, out, _ = run(
            capsys, "torus-rank", "--file", path, "--p", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["certificate"]["eigenspace_rank"] == 1
        assert doc["results"]["certificate"]["upper_bound"] == 1

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "torus.json",
            {"dimension": 1, "sigma": [[1]], "chi_order": 1, "extra": 1},
        )
        code, _, err = run(capsys, "torus-rank", "--file", path, "--p", "3")
        assert code == 2
        assert "unknown fields" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "torus-rank", "--file", "/nope.json", "--p", "3")
        assert code == 2

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "torus.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "torus-rank", "--file", str(path), "--p", "3")
        assert code == 2
        assert out == ""
        assert "domain error" in err

    def test_too_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "torus.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "torus-rank", "--file", str(path), "--p", "3")
        assert code == 2
        assert out == ""
        assert "domain error" in err

    def test_non_integer_sigma(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "torus.json",
            {"dimension": 1, "sigma": [[1.5]], "chi_order": 1},
        )
        code, _, _ = run(capsys, "torus-rank", "--file", path, "--p", "3")
        assert code == 2

    def test_booleans_are_not_integers(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "torus.json",
            {"dimension": True, "sigma": [[True]], "chi_order": True},
        )
        code, out, err = run(capsys, "torus-rank", "--file", path, "--p", "3")
        assert code == 2
        assert out == ""
        assert "integer" in err

    def test_rank_above_bound_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(torus_rank, "kernel_dim_mod_p", lambda m, p: 99)
        path = write_json(
            tmp_path,
            "torus.json",
            {"dimension": 2, "sigma": [[0, -1], [1, 0]], "chi_order": 4},
        )
        code, out, err = run(capsys, "torus-rank", "--file", path, "--p", "5")
        assert code == 3
        assert out == ""
        assert "verification failure" in err and "exceeds bound" in err

    def test_chain_violation_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(torus_rank, "order_t_multiplicity", lambda n, p, t: 2)
        path = write_json(
            tmp_path, "torus.json", {"dimension": 1, "sigma": [[-1]], "chi_order": 2}
        )
        results = failed_check(capsys, "torus-rank", "--file", path, "--p", "3")
        assert results["multiplicity_chain"]["violations"]

    def test_disagreeing_residues_exit_3(self, capsys, tmp_path, monkeypatch):
        # Phi_4 planted as (X - 2)^2 (X - 3) for the chain, through a wrapper
        # that keeps the cache clean: mod 5 the order-4 residues 2 and 3 get
        # multiplicities 2 and 1, and the lemma's cell refuses to pick one
        true_poly = cyclotomic.cyclotomic_poly
        planted = IntPoly((-12, 16, -7, 1))
        for module in (cyclotomic, torus_rank):
            monkeypatch.setattr(module, "cyclotomic_poly",
                                lambda n: planted if n == 4 else true_poly(n))
        path = write_json(
            tmp_path, "torus.json", {"dimension": 2, "sigma": [[0, -1], [1, 0]], "chi_order": 4}
        )
        code, out, err = run(capsys, "torus-rank", "--file", path, "--p", "5")
        assert (code, out) == (3, "")
        assert err == ("verification failure: order-4 residues disagree on multiplicity "
                       "for n=4, p=5: 1 of 2 have multiplicity 1\n")

    def test_rank_off_the_chain_sum_exits_3(self, capsys, tmp_path, monkeypatch):
        # 3 does not divide the order 2 of sigma, so the rank at eps = 1 must
        # be the chain sum 0; faked one higher it is still within the bound 1
        original = torus_rank.kernel_dim_mod_p
        monkeypatch.setattr(torus_rank, "kernel_dim_mod_p", lambda m, p: original(m, p) + 1)
        path = write_json(
            tmp_path, "torus.json", {"dimension": 1, "sigma": [[-1]], "chi_order": 1}
        )
        results = failed_check(capsys, "torus-rank", "--file", path, "--p", "3")
        assert results["certificate"]["eigenspace_rank"] == 1
        assert results["multiplicity_chain"]["violations"] == [
            {"eigenspace_rank": 1, "total_multiplicity": 0, "p_divides_order": False}
        ]

    def test_one_residue_list_and_one_kernel(self, capsys, tmp_path, monkeypatch):
        # 13 does not divide the order 4 of sigma: the chain lists the two
        # order-4 residues once and takes one kernel, and the certificate is
        # its entry at the canonical eps
        calls = []
        residues, kernel = torus_rank.residues_of_order, torus_rank.kernel_dim_mod_p
        monkeypatch.setattr(torus_rank, "residues_of_order",
                            lambda p, t: calls.append("residues") or residues(p, t))
        monkeypatch.setattr(torus_rank, "kernel_dim_mod_p",
                            lambda m, p: calls.append("kernel") or kernel(m, p))
        path = write_json(
            tmp_path, "torus.json", {"dimension": 2, "sigma": [[0, -1], [1, 0]], "chi_order": 4}
        )
        code, out, _ = run(capsys, "torus-rank", "--file", path, "--p", "13", "--format", "json")
        assert code == 0
        assert calls == ["residues", "kernel"]
        results = json.loads(out)["results"]
        cert, chain = results["certificate"], results["multiplicity_chain"]
        assert cert == {"upper_bound": chain["total_bound"],
                        "eigenspace_rank": chain["per_eps_eigenspace_rank"][str(chain["eps"])],
                        "char_poly_indices": [4], "eps_used": chain["eps"]}

    def test_char_poly_det_mismatch_exits_3(self, capsys, tmp_path, monkeypatch):
        # char poly of the rotation is X^2 + 1, so c_0 = 1; det faked to 7
        # mod P makes the c_0 = (-1)^d det M cross-check fail
        monkeypatch.setattr(intlinalg, "_eliminate", lambda rows, p: (len(rows), 7))
        path = write_json(
            tmp_path,
            "torus.json",
            {"dimension": 2, "sigma": [[0, -1], [1, 0]], "chi_order": 4},
        )
        code, out, err = run(capsys, "torus-rank", "--file", path, "--p", "5")
        assert code == 3
        assert out == ""
        assert "constant term is not (-1)^d det" in err


class TestOneMultiplicityRoute:
    def test_no_single_residue_multiplicity(self, capsys, tmp_path, monkeypatch):
        # the torus chain and the Weyl audit read every multiplicity from the
        # lemma's order-t cell; root_multiplicity is wrapped wherever the
        # package binds it, and none of the three commands calls it
        calls = []
        modules = [cremona_bounds] + [importlib.import_module(f"cremona_bounds.{info.name}")
                                      for info in pkgutil.iter_modules(cremona_bounds.__path__)]
        for module in modules:
            if hasattr(module, "root_multiplicity"):
                monkeypatch.setattr(module, "root_multiplicity",
                                    lambda *args, f=module.root_multiplicity:
                                    calls.append(args) or f(*args))
        phi10 = tmp_path / "phi10.json"
        phi10.write_text(INPUTS["phi10.json"][0]())
        rotation = write_json(
            tmp_path, "torus.json", {"dimension": 2, "sigma": [[0, -1], [1, 0]], "chi_order": 4}
        )
        for argv in (["torus-rank", "--file", str(phi10), "--p", "5"],
                     ["torus-rank", "--file", rotation, "--p", "13"],
                     ["sharpness"], ["weyl-audit"], ["weyl-audit", "--p", "2147483629"]):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
        assert calls == []


class TestOracle:
    def test_single_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "ff.json", {"q": 2, "sigma": [[0, 1], [1, 0]]})
        code, out, _ = run(capsys, "oracle", "--file", path, "--p", "3")
        assert code == 0
        assert "PASS" in out

    def test_file_requires_p(self, capsys, tmp_path):
        path = write_json(tmp_path, "ff.json", {"q": 2, "sigma": [[1]]})
        code, _, err = run(capsys, "oracle", "--file", path)
        assert code == 2

    def test_file_rejects_q(self, capsys, tmp_path):
        # q comes from the file; a --q beside it was ignored without a word
        path = write_json(tmp_path, "ff.json", {"q": 4, "sigma": [[0, 1], [1, 0]]})
        code, out, err = run(capsys, "oracle", "--file", path, "--p", "3", "--q", "7")
        assert code == 2
        assert out == ""
        assert "--q" in err

    def test_excluded_characteristic(self, capsys, tmp_path):
        path = write_json(tmp_path, "ff.json", {"q": 4, "sigma": [[1]]})
        code, _, _ = run(capsys, "oracle", "--file", path, "--p", "2")
        assert code == 2

    def test_dimension_must_match_sigma(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "ff.json", {"q": 4, "dimension": 5, "sigma": [[0, -1], [1, -1]]}
        )
        code, out, err = run(capsys, "oracle", "--file", path, "--p", "3")
        assert code == 2
        assert out == ""
        assert "dimension" in err

    def test_singular_point_matrix_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(ff_oracle, "smith_normal_form", lambda m: (0, 1))
        path = write_json(tmp_path, "ff.json", {"q": 4, "sigma": [[0, -1], [1, -1]]})
        code, out, err = run(capsys, "oracle", "--file", path, "--p", "3")
        assert code == 3
        assert out == ""
        assert "verification failure" in err and "singular" in err

    def test_broken_smith_chain_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(intlinalg, "_smith_diagonal", lambda a: (3, 1))
        path = write_json(tmp_path, "ff.json", {"q": 4, "sigma": [[0, -1], [1, -1]]})
        code, out, err = run(capsys, "oracle", "--file", path, "--p", "3")
        assert code == 3
        assert out == ""
        assert "verification failure" in err and "does not divide" in err

    def test_group_order_mismatch_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(sweeps, "group_order", lambda tor: ff_oracle.group_order(tor) + 1)
        path = write_json(tmp_path, "ff.json", {"q": 4, "sigma": [[0, -1], [1, -1]]})
        code, out, err = run(capsys, "oracle", "--file", path, "--p", "3")
        assert code == 3
        assert out == ""
        assert "verification failure" in err and "product of the invariant factors" in err

    def test_file_mismatch_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(sweeps, "kernel_dim_mod_p", lambda m, p: 99)
        path = write_json(tmp_path, "ff.json", {"q": 4, "sigma": [[0, -1], [1, -1]]})
        results = failed_check(capsys, "oracle", "--file", path, "--p", "3")
        assert results["kernel_dim"] == 99 and results["ok"] is False

    def test_sweep_violation_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "kernel_dim_mod_p", lambda m, p: 99)
        results = failed_check(capsys, "oracle", "--count", "1", "--q", "4", "--p", "3")
        assert len(results["violations"]) == 1

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "oracle", "--count", "5", "--seed", "3")
        assert code == 0
        assert "violations: []\n" in out

    @pytest.mark.parametrize(
        "argv", [["--p", "0"], ["--q", "0"], ["--count", "-3"]]
    )
    def test_bad_sweep_argument_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "oracle", *argv, "--format", "json")
        assert code == 2
        assert out == ""
        assert "domain error" in err

    @pytest.mark.parametrize("count", [5001, 10**8])
    def test_count_past_cap_exits_2_at_once(self, capsys, count):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--count", str(count), "--seed", "1")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert "domain error" in err

    def test_sweep_deterministic(self, capsys):
        _, out1, _ = run(
            capsys, "oracle", "--count", "4", "--seed", "9", "--format", "json"
        )
        _, out2, _ = run(
            capsys, "oracle", "--count", "4", "--seed", "9", "--format", "json"
        )
        assert out1 == out2


class TestSharpness:
    def test_single_case(self, capsys):
        code, out, _ = run(capsys, "sharpness", "--d", "4", "--t", "3")
        assert code == 0
        assert "PASS" in out

    def test_full_sweep_json(self, capsys):
        code, out, _ = run(capsys, "sharpness", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert all(c["attained"] for c in doc["results"]["cases"])

    def test_half_specified(self, capsys):
        code, _, _ = run(capsys, "sharpness", "--d", "3")
        assert code == 2

    @pytest.mark.parametrize("d, t", [(4, 2**61 - 1), (10**5, 1), (65, 1)])
    def test_out_of_range_exits_2_at_once(self, capsys, d, t):
        # a t past 2 d^2 is not factored, and no block is built past d = 64
        t0 = time.perf_counter()
        code, out, err = run(capsys, "sharpness", "--d", str(d), "--t", str(t))
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert "domain error" in err

    def test_gap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "p_elementary_rank", lambda invariants, p: 0)
        results = failed_check(capsys, "sharpness", "--d", "4", "--t", "3")
        assert [c["attained"] for c in results["cases"]] == [False]


class TestWeylAudit:
    def test_default(self, capsys):
        code, out, _ = run(capsys, "weyl-audit")
        assert code == 0
        assert "element_count: 24\n" in out
        assert "max_minus_one_multiplicity: 2\n" in out

    def test_violation_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(weyl_audit, "ALLOWED_INDICES", {1, 2, 3})
        results = failed_check(capsys, "weyl-audit")
        assert {v["fact"] for v in results["violations"]} == {"index_outside_{1,2,3,4}"}

    def test_p_2_exits_2(self, capsys):
        code, out, err = run(capsys, "weyl-audit", "--p", "2", "--format", "json")
        assert (code, out) == (2, "")
        assert "domain error" in err and "odd prime" in err


# one invocation of every subcommand; {torus} and {ff} are input files
RENDERED = [
    ["bound", "--p", "3", "--t", "1"],
    ["cyclotomic", "--n", "105"],
    ["cyclotomic", "--n", "12", "--p", "5"],
    ["lemma", "--max-n", "8", "--primes", "2,3,5"],
    ["torus-rank", "--file", "{torus}", "--p", "5"],
    ["oracle", "--file", "{ff}", "--p", "3"],
    ["oracle", "--count", "3", "--seed", "1"],
    ["sharpness"],
    ["weyl-audit"],
]


class TestOneRenderer:
    """Text and JSON are two renderings of one result, with one exit code."""

    def both_formats(self, capsys, argv):
        text = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert text[0] == code
        return text[1], json.loads(out)

    @pytest.mark.parametrize("argv", RENDERED, ids=[" ".join(a[:2]) for a in RENDERED])
    def test_text_renders_the_json_results(self, capsys, tmp_path, argv):
        files = {
            "torus": write_json(tmp_path, "torus.json",
                                {"dimension": 2, "sigma": [[0, -1], [1, 0]], "chi_order": 4}),
            "ff": write_json(tmp_path, "ff.json", {"q": 2, "sigma": [[0, 1], [1, 0]]}),
        }
        text, doc = self.both_formats(capsys, [a.format(**files) for a in argv])
        assert text == rendered_text(doc)

    def test_failed_check_renders_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(weyl_audit, "ALLOWED_INDICES", {1, 2, 3})
        text, doc = self.both_formats(capsys, ["weyl-audit"])
        assert doc["pass"] is False
        assert text == rendered_text(doc) and text.endswith("FAIL\n")

    def test_text_values_parse_back(self, capsys):
        text, doc = self.both_formats(capsys, ["cyclotomic", "--n", "12", "--p", "5"])
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        assert fields.pop("polynomial") == doc["results"].pop("polynomial")
        assert {k: json.loads(v) for k, v in fields.items()} == doc["results"]


CLI_CHILD = "import sys\nfrom cremona_bounds.cli import main\nsys.exit(main(sys.argv[1:]))"


def cli_child(*argv, prelude="", **kwargs):
    """A fresh interpreter running the CLI on argv, after prelude."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"{prelude}\n{CLI_CHILD}"
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                            stderr=subprocess.PIPE, **kwargs)


class TestOutputErrors:
    """stdout that cannot be written ends the run without a traceback."""

    @pytest.mark.parametrize("argv,prelude,read,expected", [
        # 272 kB and 3.7 MB of JSON: the child blocks on a full pipe until the
        # reader leaves
        (["cyclotomic", "--n", "120120", "--format", "json"], "", 100, 0),
        (["weyl-audit"], "from cremona_bounds import weyl_audit\n"
         "weyl_audit.ALLOWED_INDICES = {1, 2, 3}", 0, 3),
        (["cyclotomic", "--n", "746130", "--format", "json"], "", 100, 0),
    ], ids=["pass-after-100-bytes", "fail-before-any-byte", "cyclotomic-746130"])
    def test_closed_pipe_ends_quietly(self, argv, prelude, read, expected):
        child = cli_child(*argv, prelude=prelude, stdout=subprocess.PIPE)
        assert len(child.stdout.read(read)) == read
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert child.returncode == expected
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["bound", "--p", "3", "--t", "1"],
        ["cyclotomic", "--n", "746130", "--format", "json"],
    ], ids=["bound", "cyclotomic-746130"])
    def test_full_device_exits_2(self, argv):
        with open("/dev/full", "wb") as full:
            child = cli_child(*argv, stdout=full)
            _, err = child.communicate(timeout=60)
        assert child.returncode == 2
        assert err.decode().splitlines() == [
            "output error: [Errno 28] No space left on device"]


def limited_child(*argv):
    """A CLI child on argv under a 1 GiB address-space limit: (exit code,
    stdout, stderr, seconds). A run that would fill the machine's memory
    fails with a MemoryError instead."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    start = time.perf_counter()
    child = cli_child(*argv, stdout=subprocess.PIPE, preexec_fn=limit)
    try:
        out, err = child.communicate(timeout=20)
    finally:
        child.kill()
    return child.returncode, out, err, time.perf_counter() - start


class TestResidueCap:
    """Order-t residue counts above MAX_RESIDUES exit 2 at once; the lemma,
    which lists no residues, runs past the cap. Each child runs under a 1 GiB
    address-space limit."""

    @pytest.mark.parametrize("argv", [
        ["torus-rank", "--file", "{file}", "--p", "2147483647"],
    ], ids=["torus-rank"])
    def test_over_cap_exits_2_at_once(self, tmp_path, argv):
        path = write_json(tmp_path, "torus.json",
                          {"dimension": 1, "sigma": [[1]], "chi_order": 2**31 - 2})
        code, out, err, elapsed = limited_child(*(a.format(file=path) for a in argv))
        assert (code, out) == (2, b"")
        assert err.decode().splitlines() == [
            f"domain error: phi(2147483646) = 534600000 residues exceed the cap of "
            f"{MAX_RESIDUES}"]
        assert elapsed < 2

    def test_lemma_passes_past_the_cap(self):
        # phi(2^31 - 2) = 534,600,000 order-t residues at t = p - 1, none listed
        code, out, err, elapsed = limited_child(
            "lemma", "--max-n", "5", "--primes", "2147483647", "--format", "json")
        assert (code, err) == (0, b"")
        assert json.loads(out)["pass"] is True
        assert elapsed < 2


P = next(intlinalg._crt_primes())


def sigma_file(sigma, chi_order=1, q=4):
    """A d = 64 input file for both `torus-rank` and `oracle --file`."""
    return json.dumps({"dimension": 64, "chi_order": chi_order, "q": q, "sigma": sigma})


def dense_sigma():
    # U S U^-1 for S = random_finite_order_matrix(Random(0), 64) and (U, U^-1)
    # = random_unimodular on the same generator: 1,515 of 4,096 entries are
    # nonzero, the largest of absolute value 232, where the benchmark's d = 64
    # sigma are sparse
    rng = random.Random(0)
    s = sampling.random_finite_order_matrix(rng, 64)
    u, u_inv = sampling.random_unimodular(rng, 64)
    return sigma_file((u @ s @ u_inv).rows, chi_order=3, q=1048573)


def diagonal_zero_sigma():
    # entries up to 10^30 with |tr sigma| = 0: rejected by the char poly mod P
    # before any further CRT prime is sized from the entries
    rng = random.Random(64)
    return sigma_file([[0 if i == j else rng.randint(-10**30, 10**30) for j in range(64)]
                       for i in range(64)])


def lifted_block_sigma():
    # companion blocks of order 6,126,120 with P added inside the Phi_17 block:
    # the lift of the char poly mod P is cyclotomic, the char poly is not, and
    # sigma^6126120 must not be computed
    blocks = [intlinalg.companion_matrix(cyclotomic_poly(n))
              for n in (3, 5, 7, 11, 13, 17, 8, 9)]
    rows = [list(row) for row in IntMatrix.block_diagonal(blocks + [IntMatrix.identity(4)]).rows]
    rows[40][36] += P
    return sigma_file(rows)


def multiple_of_p_sigma():
    # I + P K for K dense with entries up to 10^22: I mod P, rejected by the
    # residues mod the next prime before the CRT is sized from the entries
    rng = random.Random(7)
    return sigma_file([[int(i == j) + P * rng.randint(-10**22, 10**22) for j in range(64)]
                       for i in range(64)])


# Input files by name: a builder and the sha256 of its text, checked before any
# child runs, so that a drift of `random` between Python versions is told
# apart from a change of output.
INPUTS = {
    "torus-row.json": (
        lambda: '{"dimension": 1, "chi_order": 1000002, "sigma": [[1]]}\n',
        "d55573712d7ca4fc137a854d76b63c17857601be07ebf436d385e9ae6e0c9e1d"),
    "dense-sigma.json": (
        dense_sigma, "4bcd8f9678b1d886c1f512f723949f597cee071cb794893b535844402cdf4cb1"),
    "diagonal-zero-sigma.json": (
        diagonal_zero_sigma, "4b3dfcf83688999f0b7477e3b80e7cb23021a553c070d775fadaee0428f20c7a"),
    "lifted-block-sigma.json": (
        lifted_block_sigma, "b4ed442f9a6c7abad768cfaaa07860a12398fde89af2d0467fa8451f06ca7f00"),
    "multiple-of-p-sigma.json": (
        multiple_of_p_sigma, "ccf9a88b59e9f5ab6db2595d0901cf16572f984f7f79dca834a04db20f595aa1"),
    # the companion matrix of Phi_10
    "phi10.json": (
        lambda: '{"dimension": 4, "chi_order": 2, "sigma": '
                '[[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, -1], [0, 0, 1, 1]]}\n',
        "134f539d9b880cc98ef970733802a66d17f960171f3b44c1ef0d8e5ef25568c0"),
}

# One row per pinned run: argv, the INPUTS it reads, the exit code and the
# sha256 of stdout.
PINNED_OUTPUTS = [
    pytest.param(["lemma", "--format", "json"], [], 0,
                 "82efa7ca90b7aec176ba227fd646275f44b05d2450127cc0121e955a46774023",
                 id="lemma"),
    pytest.param(["lemma", "--max-n", "300", "--primes", "13", "--format", "json"], [], 0,
                 "8a79b2fd41259c05098931128d59e3b5c13f2aec8f031ba9c3398ac1af7bc13c",
                 id="lemma-300-13"),
    # fact (c) did not finish in 90 s while it raised Phi_n mod p to phi(p^f)
    pytest.param(["lemma", "--max-n", "60", "--primes", "10007", "--format", "json"], [], 0,
                 "babeb6663448228e6509b680893f178a4e6f8082f1a7088e83f119d2692b14c0",
                 id="lemma-60-10007"),
    # the n = 2^f cells are Phi_(2^f) = 1 + X stored with stride 2^(f-1)
    pytest.param(["lemma", "--max-n", "3000", "--primes", "2", "--format", "json"], [], 0,
                 "5994abb85cbf182a3bef797e852b45dae6af1264eea14cf4377809c173814219",
                 id="lemma-3000-2"),
    # the largest documented cyclotomic indices: --p 7 reduces through the
    # stride rule; 746130 has 7 primes and height 5477, the largest among the
    # 7-prime squarefree indices; 969969 has phi(n) = 414,720, the slowest
    # build, and prints 10.7 MB
    pytest.param(["cyclotomic", "--n", "510510", "--format", "json"], [], 0,
                 "38455c878dd0c7cffc84acce17b22871788397b8b825046f85a7d29da8f368b1",
                 id="cyclotomic-510510"),
    pytest.param(["cyclotomic", "--n", "510510"], [], 0,
                 "1ede94f208119aec25843732176e62067c3dae2501516bc6dc6a9ee502b1e539",
                 id="cyclotomic-510510-text"),
    pytest.param(["cyclotomic", "--n", "999999", "--p", "7", "--format", "json"], [], 0,
                 "8c48d2e2b017b4c2ed2ebc5f0f6f23d0c2d9afaaba0c835aba83e08f36626c13",
                 id="cyclotomic-999999-p7"),
    pytest.param(["cyclotomic", "--n", "746130", "--format", "json"], [], 0,
                 "5339e5f4ac350117199eebb927523756eae82c6d79a5a9c664cbe539e6cfe5a3",
                 id="cyclotomic-746130"),
    pytest.param(["cyclotomic", "--n", "969969", "--format", "json"], [], 0,
                 "10d6f9f3d757671f9359d72a8589b480a451e7e54e220c173a60036590cec4c3",
                 id="cyclotomic-969969"),
    # phi(t) = 333,332 order-t residues, listed once by the multiplicity chain
    pytest.param(["torus-rank", "--file", "torus-row.json", "--p", "1000003",
                  "--format", "json"], ["torus-row.json"], 0,
                 "cef7c11deebd44a48eec40a88b2e7fce5ecb1d0b54262ac89c813a8afc1cc6b3",
                 id="torus-row"),
    pytest.param(["torus-rank", "--file", "dense-sigma.json", "--p", "2147483629",
                  "--format", "json"], ["dense-sigma.json"], 0,
                 "688e909405f99ee3f303a01cd3d35a7ef6689d6e8b78efb8e476efb62e79e59b",
                 id="dense-sigma-torus-rank"),
    pytest.param(["oracle", "--file", "dense-sigma.json", "--p", "2147483629",
                  "--format", "json"], ["dense-sigma.json"], 0,
                 "ca927d9cc233463fd34fd209623e96d0b4211d78e8b25c2d17b9dc5b977816c4",
                 id="dense-sigma-oracle"),
    # -1 is the only residue of order 2: the audit sums its cells over the
    # indices of each element
    pytest.param(["weyl-audit", "--p", "3", "--format", "json"], [], 0,
                 "702681d5fb0ac5fd6a11ec1158d7256057f679cbf20a20730ce52e848aa88806",
                 id="weyl-audit-3"),
    pytest.param(["weyl-audit", "--p", "2147483629", "--format", "json"], [], 0,
                 "3bc37354167d7660beb3b6b5ffc87bc1baa7ae992df0f317b433033816f0bc59",
                 id="weyl-audit-2147483629"),
    pytest.param(["sharpness", "--format", "json"], [], 0,
                 "cc8c941955247befd30684868042ae9afee16852c366fad707e9eb9be3ff78a4",
                 id="sharpness"),
    # 5 divides the order 10 of sigma: the chain takes its kernel per residue
    pytest.param(["torus-rank", "--file", "phi10.json", "--p", "5", "--format", "json"],
                 ["phi10.json"], 0,
                 "b247740057517b6695fb36e6fda952d029eb3a24e97b381e04ca6f3bd51bc5ae",
                 id="phi10-torus-rank"),
    # both loaders reject each sigma of infinite order with an empty stdout
    *(pytest.param([command, "--file", name, "--p", "3"], [name], 2,
                   hashlib.sha256(b"").hexdigest(), id=f"{name[:-5]}-{command}")
      for name in ("diagonal-zero-sigma.json", "lifted-block-sigma.json",
                   "multiple-of-p-sigma.json")
      for command in ("torus-rank", "oracle")),
]


class TestPinnedOutputs:
    """The CLI's stdout on a fixed corpus is pinned byte for byte, with its
    exit code; a rejected input prints nothing. Each row runs in a fresh CLI
    child in a temporary directory under a 20 s timeout, with its input files
    under relative names, as the JSON echoes the --file argument."""

    @pytest.mark.parametrize("argv,inputs,code,digest", PINNED_OUTPUTS)
    def test_output_digest(self, tmp_path, argv, inputs, code, digest):
        for name in inputs:
            build, text_digest = INPUTS[name]
            text = build()
            assert hashlib.sha256(text.encode()).hexdigest() == text_digest, name
            (tmp_path / name).write_text(text)
        child = cli_child(*argv, cwd=tmp_path, stdout=subprocess.PIPE)
        try:
            out, err = child.communicate(timeout=20)
        finally:
            child.kill()
        assert child.returncode == code, err
        assert (err == b"") == (code == 0)
        assert hashlib.sha256(out).hexdigest() == digest


class TestInputSchema:
    @pytest.mark.parametrize(
        "command,doc,message",
        [
            ("torus-rank", [[1]], "input file must contain a JSON object"),
            ("torus-rank", {"dimension": 1, "chi_order": 1}, "missing the sigma"),
            ("oracle", {"q": 4}, "missing the sigma"),
            ("torus-rank", {"dimension": 1, "sigma": [[1]], "chi_order": 1.5},
             "chi_order must be an integer"),
            ("oracle", {"q": 4.5, "sigma": [[1]]}, "q must be an integer"),
            ("torus-rank", {"dimension": 1, "sigma": [[1]]},
             "requires field 'chi_order'"),
            ("oracle", {"sigma": [[1]]}, "requires field 'q'"),
        ],
    )
    def test_bad_file_exits_2(self, capsys, tmp_path, command, doc, message):
        path = write_json(tmp_path, "input.json", doc)
        code, out, err = run(capsys, command, "--file", path, "--p", "3")
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("chi_order", [0, -4])
    def test_character_order_below_1_exits_2(self, capsys, tmp_path, chi_order):
        path = write_json(tmp_path, "torus.json",
                          {"dimension": 1, "sigma": [[1]], "chi_order": chi_order})
        code, out, err = run(capsys, "torus-rank", "--file", path, "--p", "3")
        assert (code, out) == (2, "")
        assert err == "domain error: character order must be >= 1\n"


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--p", "3", "--t", "2"],
            ["cyclotomic", "--n", "105"],
            ["lemma", "--max-n", "6", "--primes", "2,3"],
            ["weyl-audit"],
            ["sharpness", "--d", "2", "--t", "4"],
        ],
    )
    def test_reserialization_is_byte_identical(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


HUGE = 10**40


def _sigma_kinds(rng, d):
    """Makers of sigma values for an input file, by kind: JSON data, or raw
    text where the document cannot be dumped (deep nesting)."""
    def dense(bound):
        return [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]

    def conjugated(block):
        # d // 2 draws of a 2 x 2 block, padded by [1] to d x d, then
        # conjugated by a product U of three unimodulars, so that the
        # entries of the blocks reach most rows
        if d == 1:
            return [[rng.choice((2, -3, HUGE))]]
        blocks = [block() for _ in range(d // 2)] + [IntMatrix([[1]])] * (d % 2)
        m = IntMatrix.block_diagonal(blocks)
        for _ in range(3):
            u, u_inv = sampling.random_unimodular(rng, d)
            m = u @ m @ u_inv
        return [list(r) for r in m.rows]

    def finite_order():
        return [list(r) for r in sampling.random_finite_order_matrix(rng, d).rows]

    def lift_of_finite_order():
        # congruent mod P to a finite-order matrix, as `lifted_block_sigma`
        rows = finite_order()
        rows[rng.randrange(d)][rng.randrange(d)] += rng.choice((-P, P))
        return rows

    def multiple_of_p():
        # I + P*K is I mod P, but its entries size a long CRT
        return [[int(i == j) + P * x for j, x in enumerate(row)]
                for i, row in enumerate(dense(10**22))]

    def diagonal_zero():
        return [[0 if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(dense(HUGE))]

    def jordan():
        # a Jordan block at +-1 with a huge corner
        lam = rng.choice((-1, 1))
        return IntMatrix([[lam, rng.randint(1, HUGE)], [0, lam]])

    return {
        "finite order": finite_order,
        "huge entries": lambda: dense(HUGE),
        "huge entries, diagonal 0": diagonal_zero,
        "infinite order": lambda: conjugated(lambda: IntMatrix([[2, 1], [1, 1]])),
        "not semisimple": lambda: conjugated(jordan),
        "lift of a finite order": lift_of_finite_order,
        "dense multiple of P": multiple_of_p,
        "not square": lambda: [[1] * d, [1] * (d + 1)],
        "65 rows": lambda: [[int(i == j) for j in range(65)] for i in range(65)],
        "booleans": lambda: [[True] * d] * d,
        "deep nesting": lambda: "[" * 100_000 + "]" * 100_000,
    }


PRIMES_TO_13 = [2, 3, 5, 7, 11, 13]


def _run_main(argv):
    """(exit code, seconds) of one in-process CLI run; argparse usage errors
    leave main by SystemExit."""
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, time.perf_counter() - start


class TestExitCodeFuzz:
    """Generated torus-rank and oracle --file inputs, and lemma, cyclotomic,
    bound, sharpness and weyl-audit arguments: every run returns 0, 1, 2 or 3
    within 2 s, and no exception escapes main. Outside torus-rank and oracle
    the code is the one the inputs imply: 1 for an argument that is not an
    integer, 0 for a valid input and 2 otherwise, with no traceback. A
    chi_order that divides p - 1 is at most 12 here, as the work per
    order-t residue grows with phi(t), a known cost of its own; the one
    larger draw, 2^31 - 2, has phi = 534,600,000 above MAX_RESIDUES, so with
    p = 2^31 - 1 torus-rank must exit 2 before it lists any residue. The
    lemma lists no residues: its valid primes are those up to 13 and
    2^31 - 1. Arguments are passed with "=", so that a minus sign reaches
    the parser."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(["torus-rank", "oracle"]),
        kind=st.sampled_from(list(_sigma_kinds(random.Random(0), 2))),
        seed=st.integers(0, 2**32),
        d=st.one_of(st.integers(1, 8), st.integers(9, 64), st.just(64)),
        # each of q, p and chi_order is valid about half of the time
        q=st.one_of(st.sampled_from([2, 4, 9, 2**20]),
                    st.sampled_from([6, 1, 0, -4, 2**20 + 1, 2**61 - 1, HUGE])),
        p=st.one_of(st.sampled_from([3, 5, 7, 2**31 - 1]),
                    st.sampled_from([2**31, 2**31 + 1, 9, -3, "x"])),
        chi_order=st.one_of(st.integers(1, 12), st.sampled_from([0, -1, HUGE, 2**31 - 2])),
        fmt=st.sampled_from(["text", "json"]),
    )
    # the generated draws of this kind stay small; at d = 64 its entries
    # alone would size a CRT of 142 primes
    @example(command="torus-rank", kind="dense multiple of P", seed=7, d=64, q=4, p=3,
             chi_order=1, fmt="json")
    @example(command="oracle", kind="dense multiple of P", seed=7, d=64, q=4, p=3,
             chi_order=1, fmt="json")
    # the residue cap, whatever the generated draws meet
    @example(command="torus-rank", kind="finite order", seed=0, d=1, q=4, p=2**31 - 1,
             chi_order=2**31 - 2, fmt="json")
    def test_exit_code_and_time(self, capsys, tmp_path, command, kind, seed, d, q, p,
                                chi_order, fmt):
        sigma = _sigma_kinds(random.Random(seed), d)[kind]()
        body, rows = (sigma, d) if isinstance(sigma, str) else (json.dumps(sigma), len(sigma))
        path = tmp_path / "input.json"
        path.write_text(f'{{"dimension": {rows}, "chi_order": {chi_order}, "q": {q}, '
                        f'"sigma": {body}}}')
        argv = [command, "--file", str(path), "--p", str(p), "--format", fmt]
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code in (0, 1, 2, 3)
        if command == "torus-rank" and (p, chi_order) == (2**31 - 1, 2**31 - 2):
            assert code == 2
        assert elapsed < 2, f"{kind}, d = {d}: {elapsed:.2f} s"

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        max_n=st.one_of(st.integers(1, 40), st.sampled_from([-1, 0, 10**6 + 1, "x"])),
        # each prime is valid about half of the time
        primes=st.one_of(
            st.lists(st.one_of(st.sampled_from([2, 3, 5, 7, 11, 13, 2**31 - 1]),
                               st.sampled_from([0, 1, 4, 9, 12, -3, 2**31])),
                     min_size=1, max_size=4).map(lambda ps: ",".join(map(str, ps))),
            st.sampled_from(["", "a,b"])),
        fmt=st.sampled_from(["text", "json"]),
    )
    @example(max_n=5, primes="2147483647", fmt="json")
    @example(max_n=40, primes="2,13,2147483647", fmt="json")
    @example(max_n=40, primes="2,3,5,7,11,13", fmt="json")
    def test_lemma_exit_code_and_time(self, capsys, max_n, primes, fmt):
        argv = ["lemma", f"--max-n={max_n}", f"--primes={primes}", "--format", fmt]
        code, elapsed = _run_main(argv)
        err = capsys.readouterr().err
        valid = (isinstance(max_n, int) and 1 <= max_n <= 10**6 and primes
                 and all(x in {"2", "3", "5", "7", "11", "13", str(2**31 - 1)}
                         for x in primes.split(",")))
        assert code == (1 if max_n == "x" else 0 if valid else 2)
        assert "Traceback" not in err
        assert elapsed < 2, f"lemma --max-n {max_n} --primes {primes}: {elapsed:.2f} s"

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.one_of(st.integers(1, 3003), st.sampled_from([-1, 0, 10**6 + 1, "x"])),
        p=st.one_of(st.none(), st.sampled_from(PRIMES_TO_13 + [2**31 - 1]),
                    st.sampled_from([1, 4, 9, 12, 2**31 - 3, 0, -7, 2**31])),
        fmt=st.sampled_from(["text", "json"]),
    )
    @example(n=3003, p=2**31 - 1, fmt="json")
    @example(n="x", p=-7, fmt="text")
    def test_cyclotomic_exit_code_and_time(self, capsys, n, p, fmt):
        argv = ["cyclotomic", f"--n={n}", "--format", fmt]
        if p is not None:
            argv.append(f"--p={p}")
        code, elapsed = _run_main(argv)
        err = capsys.readouterr().err
        valid = (isinstance(n, int) and 1 <= n <= 10**6
                 and p in [None, *PRIMES_TO_13, 2**31 - 1])
        assert code == (1 if n == "x" else 0 if valid else 2)
        assert "Traceback" not in err
        assert elapsed < 2, f"cyclotomic --n {n} --p {p}: {elapsed:.2f} s"

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        p=st.sampled_from(PRIMES_TO_13 + [2**31 - 1, 1, 4, 9, 12, 2**31]),
        kind=st.sampled_from(["divisor", "non-divisor", "zero", "negative"]),
        data=st.data(),
    )
    def test_bound_exit_code_and_time(self, capsys, p, kind, data):
        if kind == "divisor":
            t = data.draw(st.sampled_from(divisors(p - 1) if p > 1 else [1]))
        elif kind == "non-divisor":
            t = data.draw(st.integers(2, 64).filter(lambda t: (p - 1) % t))
        else:
            t = 0 if kind == "zero" else data.draw(st.integers(-64, -1))
        code, elapsed = _run_main(["bound", f"--p={p}", f"--t={t}", "--format", "json"])
        err = capsys.readouterr().err
        valid = p in [*PRIMES_TO_13, 2**31 - 1] and t >= 1 and (p - 1) % t == 0
        assert code == (0 if valid else 2)
        assert "Traceback" not in err
        assert elapsed < 2, f"bound --p {p} --t {t}: {elapsed:.2f} s"

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        d=st.one_of(st.integers(1, 64), st.sampled_from([-1, 0, 65])),
        t=st.one_of(st.none(), st.integers(1, 240), st.sampled_from([0, 2**61 - 1])),
        fmt=st.sampled_from(["text", "json"]),
    )
    @example(d=64, t=1, fmt="json")
    @example(d=64, t=2**61 - 1, fmt="json")
    def test_sharpness_exit_code_and_time(self, capsys, d, t, fmt):
        argv = ["sharpness", f"--d={d}", "--format", fmt]
        if t is not None:
            argv.append(f"--t={t}")
        code, elapsed = _run_main(argv)
        err = capsys.readouterr().err
        # a witness exists when 1 <= d <= 64 and phi(t) <= d (so t <= 2 d^2)
        valid = (1 <= d <= 64 and t is not None and 1 <= t <= 2 * d * d
                 and euler_phi(t) <= d)
        assert code == (0 if valid else 2)
        assert "Traceback" not in err
        assert elapsed < 2, f"sharpness --d {d} --t {t}: {elapsed:.2f} s"

    @pytest.mark.parametrize("p, expected", [
        (-1, 2), (0, 2), (1, 2), (2, 2), (3, 0), (4, 2), (13, 0),
        (2**31 - 1, 0), (2**31, 2), ("x", 1),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_weyl_audit_exit_code_and_time(self, capsys, p, expected, fmt):
        code, elapsed = _run_main(["weyl-audit", f"--p={p}", "--format", fmt])
        err = capsys.readouterr().err
        assert code == expected
        assert "Traceback" not in err
        assert elapsed < 2, f"weyl-audit --p {p}: {elapsed:.2f} s"
