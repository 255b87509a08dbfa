import json

import pytest

from cremona_bounds import cyclotomic, ff_oracle, sweeps, torus_rank, weyl_audit
from cremona_bounds.cli import main
from cremona_bounds.intlinalg import IntMatrix
from cremona_bounds.numth import divisors


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        assert "rank bound = 3" in out
        assert "Fermat cubic" in out

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

    def test_counterexample_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cyclotomic, "root_multiplicity", lambda pbar, eps: 0)
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
        assert "eigenspace rank" in out

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
        monkeypatch.setattr(torus_rank, "root_multiplicity", lambda pbar, eps: 2)
        path = write_json(
            tmp_path, "torus.json", {"dimension": 1, "sigma": [[-1]], "chi_order": 2}
        )
        results = failed_check(capsys, "torus-rank", "--file", path, "--p", "3")
        assert results["multiplicity_chain"]["violations"]

    def test_char_poly_det_mismatch_exits_3(self, capsys, tmp_path, monkeypatch):
        # char poly of the rotation is X^2 + 1, so c_0 = 1; det faked to 7
        # makes the c_0 = (-1)^d det M cross-check fail
        monkeypatch.setattr(IntMatrix, "det", lambda self: 7)
        path = write_json(
            tmp_path,
            "torus.json",
            {"dimension": 2, "sigma": [[0, -1], [1, 0]], "chi_order": 4},
        )
        code, out, err = run(capsys, "torus-rank", "--file", path, "--p", "5")
        assert code == 3
        assert out == ""
        assert "constant term is not (-1)^d det" in err


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
        assert "violations: 0" in out

    @pytest.mark.parametrize(
        "argv", [["--p", "0"], ["--q", "0"], ["--count", "-3"]]
    )
    def test_bad_sweep_argument_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "oracle", *argv, "--format", "json")
        assert code == 2
        assert out == ""
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

    def test_gap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "p_elementary_rank", lambda invariants, p: 0)
        results = failed_check(capsys, "sharpness", "--d", "4", "--t", "3")
        assert [c["attained"] for c in results["cases"]] == [False]


class TestWeylAudit:
    def test_default(self, capsys):
        code, out, _ = run(capsys, "weyl-audit")
        assert code == 0
        assert "24 elements" in out
        assert "max multiplicity of -1 mod 3: 2" in out

    def test_violation_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(weyl_audit, "ALLOWED_INDICES", {1, 2, 3})
        results = failed_check(capsys, "weyl-audit")
        assert {v["fact"] for v in results["violations"]} == {"index_outside_{1,2,3,4}"}


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
