"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from xubirkhoff import (
    decompose_unitary,
    haar_unitary,
    matrix_from_json,
    matrix_to_json,
    perm_sum_to_json,
    random_xu,
)
from xubirkhoff.cli import main
from xubirkhoff.numerics import dumps_json, max_abs_diff


def write_matrix(path, a):
    path.write_text(dumps_json(matrix_to_json(a)) + "\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSample:
    def test_xu_sample(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sample", "4", "--kind", "xu", "--seed", "3")
        assert code == 0
        a = matrix_from_json(json.loads(out))
        assert np.array_equal(a, random_xu(4, seed=3))

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "3", "--seed", "-5")
        assert code == 2 and not out
        assert "seed" in err

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "m.json"
        code, out, _ = run_cli(
            capsys, "sample", "3", "--kind", "unitary", "--output", str(dest)
        )
        assert code == 0 and out == ""
        matrix_from_json(json.loads(dest.read_text()))


class TestDecompose:
    def test_prime_identity(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        write_matrix(path, np.eye(5, dtype=complex))
        code, out, _ = run_cli(capsys, "decompose", str(path), "--method", "prime")
        assert code == 0
        d = json.loads(out)
        assert d["engine"] == "prime"
        assert len(d["terms"]) == 25
        rep = d["report"]
        assert abs(rep["weight_sum"][0] - 1.0) < 1e-12
        assert abs(rep["sq_moduli_sum"] - 1.0) < 1e-12
        assert all(rep["passed"].values())

    def test_auto_picks_engine(self, capsys, tmp_path):
        path = tmp_path / "x4.json"
        write_matrix(path, random_xu(4, seed=2))
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        assert json.loads(out)["engine"] == "xu4"

    def test_xu3_with_p(self, capsys, tmp_path):
        path = tmp_path / "x3.json"
        write_matrix(path, random_xu(3, seed=2))
        code, out, _ = run_cli(
            capsys, "decompose", str(path), "--method", "xu3", "--p", "0.5+0.5j"
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["passed"]["reconstruction"]
        assert rep["passed"]["sq_moduli"]

    def test_non_xu_is_engine_error(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        rng = np.random.Generator(np.random.Philox(1))
        q, r = np.linalg.qr(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        write_matrix(path, q)
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert "not" in err

    def test_composite_prime_request_is_engine_error(self, capsys, tmp_path):
        path = tmp_path / "x6.json"
        write_matrix(path, random_xu(6, seed=1))
        code, _, err = run_cli(
            capsys, "decompose", str(path), "--method", "prime"
        )
        assert code == 1
        assert "prime" in err or "composite" in err

    def test_oversized_recursive_input_is_engine_error(self, capsys, tmp_path):
        # A full-support XU(16), the smallest composite size refused, is
        # refused before its first fold, which would take several GB;
        # the message names the level and pairs.
        path = tmp_path / "x16.json"
        code, _, _ = run_cli(
            capsys, "sample", "16", "--kind", "xu", "--seed", "0", "--output", str(path)
        )
        assert code == 0
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert "level 16" in err and "110073600 pairs" in err

    def test_tight_tol_gates_only_the_input(self, capsys, tmp_path):
        # The recursive engine's inner levels are XU to the scaling's 1e-10,
        # and a --tol of 1e-12 checks the input alone.
        m, d = str(tmp_path / "x6.json"), str(tmp_path / "d6.json")
        assert main(["sample", "6", "--kind", "xu", "--seed", "3", "--output", m]) == 0
        argv = ["decompose", m, "--method", "recursive", "--tol", "1e-12"]
        assert main([*argv, "--output", d]) == 0
        code, _, _ = run_cli(capsys, "verify", d, m)
        assert code == 0

    @pytest.mark.parametrize("tol, report_tol", [("1e-12", 1e-9), ("1e-3", 1e-3)])
    def test_report_tol_is_at_least_1e_9(self, capsys, tmp_path, tol, report_tol):
        # The reconstruction error of this input is 1.5e-11, the scaling
        # residual: a report at --tol 1e-12 used to fail inside a run that
        # exited 0.
        m = str(tmp_path / "x6.json")
        assert main(["sample", "6", "--kind", "xu", "--seed", "3", "--output", m]) == 0
        code, out, _ = run_cli(
            capsys, "decompose", m, "--method", "recursive", "--tol", tol
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["tol"] == report_tol
        assert all(report["passed"].values())

    def test_bad_json_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2

    def test_bad_schema_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "entries": [[[1, 0]]]}')
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2

    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "decompose", str(tmp_path / "nope.json"))
        assert code == 2


class TestVerifyRoundTrip:
    # Every engine; recursive at 6 and 8 folds one level through the cached
    # plan over AGL(1, 5) and AGL(1, 7).
    @pytest.mark.parametrize(
        "method, n",
        [
            ("xu2", 2),
            ("xu3", 3),
            ("xu4", 4),
            ("prime", 5),
            ("prime", 31),
            ("recursive", 2),
            ("recursive", 6),
            ("recursive", 8),
        ],
    )
    def test_report_reproduced_to_the_digit(self, capsys, tmp_path, method, n):
        mpath = tmp_path / "m.json"
        write_matrix(mpath, random_xu(n, seed=9))
        code, out, _ = run_cli(capsys, "decompose", str(mpath), "--method", method)
        assert code == 0
        d = json.loads(out)
        dpath = tmp_path / "d.json"
        dpath.write_text(dumps_json(d) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(dpath), str(mpath))
        assert code == 0
        assert json.loads(out) == d["report"]

    def test_failing_verification_exits_nonzero(self, capsys, tmp_path):
        mpath = tmp_path / "m.json"
        write_matrix(mpath, random_xu(5, seed=9))
        code, out, _ = run_cli(capsys, "decompose", str(mpath), "--method", "prime")
        d = json.loads(out)
        d["terms"][0]["weight"] = [0.9, 0.0]
        dpath = tmp_path / "d.json"
        dpath.write_text(dumps_json(d) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(dpath), str(mpath))
        assert code == 1
        assert not json.loads(out)["passed"]["reconstruction"]

    def test_complex_decomposition_checked_by_its_phases(self, capsys, tmp_path):
        # The complex decomposition of an XU matrix: its line sums do equal
        # its weight sum, so before phases were checked, a zero-weight term
        # with phases of modulus 2 passed every check.
        mpath = tmp_path / "x.json"
        x = random_xu(5, seed=2)
        write_matrix(mpath, x)
        d = perm_sum_to_json(decompose_unitary(x))
        dpath = tmp_path / "d.json"
        dpath.write_text(dumps_json(d) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(dpath), str(mpath))
        assert code == 0 and json.loads(out)["passed"]["phases"]
        d["terms"].insert(
            0, {"perm": [1, 2, 3, 4, 5], "phases": [[2.0, 0.0]] * 5, "weight": [0.0, 0.0]}
        )
        dpath.write_text(dumps_json(d) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(dpath), str(mpath))
        rep = json.loads(out)
        assert code == 1
        assert rep["phase_deviation"] == 1.0 and not rep["passed"]["phases"]
        assert rep["passed"]["reconstruction"] and rep["passed"]["line_sums"]

    def test_doubled_phase_fails(self, capsys, tmp_path):
        mpath = tmp_path / "u.json"
        write_matrix(mpath, haar_unitary(5, seed=1))
        d = perm_sum_to_json(decompose_unitary(haar_unitary(5, seed=1)))
        d["terms"][0]["phases"][0] = [2 * v for v in d["terms"][0]["phases"][0]]
        dpath = tmp_path / "d.json"
        dpath.write_text(dumps_json(d) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(dpath), str(mpath))
        assert code == 1 and not json.loads(out)["passed"]["phases"]

    @pytest.mark.parametrize("perm", [[1, 1, 2, 3, 4], [10**30, 2, 3, 4, 5]])
    def test_non_bijective_perm_is_parse_error(self, capsys, tmp_path, perm):
        mpath = tmp_path / "m.json"
        write_matrix(mpath, random_xu(5, seed=9))
        code, out, _ = run_cli(capsys, "decompose", str(mpath), "--method", "prime")
        d = json.loads(out)
        d["terms"][0]["perm"] = perm
        dpath = tmp_path / "d.json"
        dpath.write_text(dumps_json(d) + "\n")
        code, out, err = run_cli(capsys, "verify", str(dpath), str(mpath))
        assert code == 2
        assert out == "" and "bijection" in err


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["sample", "decompose", "verify"])
    @pytest.mark.parametrize("dest", ["missing/x.json", "."])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, command, dest):
        mpath, dpath = tmp_path / "m.json", tmp_path / "d.json"
        write_matrix(mpath, random_xu(5, seed=9))
        assert main(["decompose", str(mpath), "--output", str(dpath)]) == 0
        argv = {
            "sample": ["sample", "5"],
            "decompose": ["decompose", str(mpath)],
            "verify": ["verify", str(dpath), str(mpath)],
        }[command]
        out_path = tmp_path / dest
        code, out, err = run_cli(capsys, *argv, "--output", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "missing").exists()


class TestSchemaTypes:
    """A string, a boolean or (for ``perm``) a non-integer number in a
    numeric field is bad input, not a value to convert."""

    def _decomposition(self, capsys, tmp_path):
        mpath = tmp_path / "m.json"
        write_matrix(mpath, random_xu(5, seed=9))
        code, out, _ = run_cli(capsys, "decompose", str(mpath), "--method", "prime")
        assert code == 0
        return mpath, json.loads(out)

    def _verify(self, capsys, tmp_path, d, mpath):
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(d) + "\n")
        return run_cli(capsys, "verify", str(dpath), str(mpath))

    @pytest.mark.parametrize(
        "perm",
        [
            [1.5, 2.5, 3.5, 4.5, 5.5],
            [1.0, 2, 3, 4, 5],
            ["1", 2, 3, 4, 5],
            [True, 2, 3, 4, 5],
        ],
    )
    def test_non_integer_perm_entry(self, capsys, tmp_path, perm):
        mpath, d = self._decomposition(capsys, tmp_path)
        d["terms"][0]["perm"] = perm
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and "integers" in err

    @pytest.mark.parametrize("n", [5.0, "5", True])
    def test_non_integer_n(self, capsys, tmp_path, n):
        mpath, d = self._decomposition(capsys, tmp_path)
        d["n"] = n
        code, _, err = self._verify(capsys, tmp_path, d, mpath)
        kind = type(n).__name__
        assert code == 2 and f"'n' must be an integer, got {kind}" in err

    @pytest.mark.parametrize("part", ["0.5", True, False])
    def test_non_number_weight_part(self, capsys, tmp_path, part):
        mpath, d = self._decomposition(capsys, tmp_path)
        d["terms"][0]["weight"][1] = part
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and "numbers" in err

    @pytest.mark.parametrize("part", ["1", True])
    def test_non_number_phase_part(self, capsys, tmp_path, part):
        mpath = tmp_path / "u.json"
        write_matrix(mpath, haar_unitary(3, seed=4))
        d = perm_sum_to_json(decompose_unitary(haar_unitary(3, seed=4)))
        # Parsed and rebuilt: a complex sum passes on its own invariants,
        # although a Haar unitary's line sums are not 1.
        code, out, _ = self._verify(capsys, tmp_path, d, mpath)
        assert code == 0 and json.loads(out)["passed"]["reconstruction"]
        d["terms"][-1]["phases"][2][0] = part
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and "numbers" in err

    @pytest.mark.parametrize("part", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_part(self, capsys, tmp_path, part):
        mpath, d = self._decomposition(capsys, tmp_path)
        d["terms"][0]["weight"][0] = part
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        # The decomposition is at fault, not the matrix it reconstructs.
        assert code == 2
        assert out == "" and "d.json" in err and "finite" in err

    def test_weights_summing_past_the_float_range(self, capsys, tmp_path):
        mpath, d = self._decomposition(capsys, tmp_path)
        d["terms"] = [{**d["terms"][0], "weight": [1e308, 0.0]}] * 2
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "d.json" in err
        assert "summed weights must be finite" in err

    def test_non_finite_phase_part(self, capsys, tmp_path):
        mpath = tmp_path / "u.json"
        write_matrix(mpath, haar_unitary(3, seed=4))
        d = perm_sum_to_json(decompose_unitary(haar_unitary(3, seed=4)))
        d["terms"][0]["phases"][1][1] = float("nan")
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and "d.json" in err and "finite" in err

    @pytest.mark.parametrize("n", [-3, 10**30])
    def test_negative_or_huge_n(self, capsys, tmp_path, n):
        mpath, _ = self._decomposition(capsys, tmp_path)
        code, out, err = self._verify(capsys, tmp_path, {"n": n, "terms": []}, mpath)
        assert code == 2
        assert out == "" and "d.json" in err

    def test_zero_n_is_bad_input(self, capsys, tmp_path):
        # Not an engine error (exit 1): the document is malformed.
        mpath, _ = self._decomposition(capsys, tmp_path)
        code, out, err = self._verify(capsys, tmp_path, {"n": 0, "terms": []}, mpath)
        assert code == 2
        assert out == "" and "d.json" in err and "positive" in err

    def test_missing_n_is_bad_input(self, capsys, tmp_path):
        mpath, _ = self._decomposition(capsys, tmp_path)
        code, out, err = self._verify(capsys, tmp_path, {"terms": []}, mpath)
        assert code == 2
        assert out == "" and "d.json" in err and "'n' and 'terms'" in err

    def test_empty_terms_parse_to_an_empty_sum(self, capsys, tmp_path):
        mpath, _ = self._decomposition(capsys, tmp_path)
        code, out, _ = self._verify(capsys, tmp_path, {"n": 5, "terms": []}, mpath)
        assert code == 1
        assert not json.loads(out)["passed"]["reconstruction"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("terms", ""),
            ("terms", {}),
            ("terms", [1]),
            ("engine", None),
            ("engine", [1]),
        ],
    )
    def test_terms_not_objects_or_engine_not_string(
        self, capsys, tmp_path, field, value
    ):
        # Only the field is replaced: the other terms (or the engine) are
        # those of a valid decomposition.
        mpath, d = self._decomposition(capsys, tmp_path)
        d[field] = value
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and "d.json" in err and f"'{field}' must be" in err

    @pytest.mark.parametrize("field", ["perm", "weight"])
    @pytest.mark.parametrize("term", [1, 4, 25])
    def test_term_without_a_field_is_named(self, capsys, tmp_path, field, term):
        mpath, d = self._decomposition(capsys, tmp_path)
        del d["terms"][term - 1][field]
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2 and out == ""
        assert f"error: {tmp_path / 'd.json'}: decomposition term {term} has no '{field}'\n" == err

    def test_phases_on_only_some_terms_names_a_term_without(self, capsys, tmp_path):
        mpath = tmp_path / "u.json"
        write_matrix(mpath, haar_unitary(3, seed=4))
        d = perm_sum_to_json(decompose_unitary(haar_unitary(3, seed=4)))
        del d["terms"][2]["phases"]
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2 and out == ""
        assert "d.json: decomposition term 3 has no 'phases'" in err
        # Phases on one term of a plain decomposition: the first term
        # without them is named.
        mpath, d = self._decomposition(capsys, tmp_path)
        d["terms"][1]["phases"] = [[1.0, 0.0]] * 5
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2 and out == ""
        assert "d.json: decomposition term 1 has no 'phases'" in err

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_ragged_matrix_entries(self, capsys, tmp_path, command):
        mpath, d = self._decomposition(capsys, tmp_path)
        m = matrix_to_json(random_xu(5, seed=9))
        del m["entries"][3][1]
        mpath.write_text(json.dumps(m))
        if command == "decompose":
            code, out, err = run_cli(capsys, "decompose", str(mpath))
        else:
            code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and "m.json" in err

    @pytest.mark.parametrize("part", ["0.5", True])
    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_non_number_matrix_entry(self, capsys, tmp_path, part, command):
        mpath, d = self._decomposition(capsys, tmp_path)
        m = matrix_to_json(random_xu(5, seed=9))
        m["entries"][2][3][0] = part
        mpath.write_text(json.dumps(m))
        if command == "decompose":
            code, out, err = run_cli(capsys, "decompose", str(mpath))
        else:
            code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and "numbers" in err


class TestParserReuse:
    """``main`` builds its parser once; each call still parses afresh and
    looks its handler up by name."""

    def test_no_state_between_calls(self, capsys, tmp_path):
        mpath = tmp_path / "m.json"
        write_matrix(mpath, random_xu(5, seed=9))
        dpath = tmp_path / "d.json"
        assert main(["decompose", str(mpath), "--output", str(dpath)]) == 0
        rpath = tmp_path / "r.json"
        argv = ["verify", str(dpath), str(mpath), "--tol", "1e-3"]
        code, out, _ = run_cli(capsys, *argv, "--output", str(rpath))
        assert code == 0 and out == ""
        assert json.loads(rpath.read_text())["tol"] == 1e-3
        rpath.unlink()
        code, out, _ = run_cli(capsys, "verify", str(dpath), str(mpath))
        assert code == 0 and not rpath.exists()
        assert json.loads(out)["tol"] == 1e-9
        code, out, _ = run_cli(capsys, "sample", "3", "--seed", "2")
        assert code == 0
        assert np.array_equal(matrix_from_json(json.loads(out)), random_xu(3, seed=2))

    def test_handler_looked_up_at_call_time(self, capsys, tmp_path, monkeypatch):
        mpath = tmp_path / "m.json"
        write_matrix(mpath, random_xu(5, seed=9))
        dpath = tmp_path / "d.json"
        assert main(["decompose", str(mpath), "--output", str(dpath)]) == 0
        assert main(["verify", str(dpath), str(mpath)]) == 0
        capsys.readouterr()
        seen = []

        def patched(args):
            seen.append((args.decomposition, args.matrix, args.tol))
            return 7

        monkeypatch.setattr("xubirkhoff.cli._cmd_verify", patched)
        assert main(["verify", str(dpath), str(mpath), "--tol", "0.5"]) == 7
        assert seen == [(str(dpath), str(mpath), 0.5)]


class TestScale:
    def test_haar_input(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        write_matrix(path, haar_unitary(4, seed=6))
        code, out, _ = run_cli(capsys, "scale", str(path))
        assert code == 0
        d = json.loads(out)
        assert d["spread"] <= 1e-10
        assert d["reconstruction_error"] <= 1e-9
        core = matrix_from_json(d["core"])
        assert np.abs(core.sum(axis=0) - 1.0).max() <= 1e-9

    def test_non_unitary_engine_error(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.ones((2, 2), dtype=complex))
        code, _, _ = run_cli(capsys, "scale", str(path))
        assert code == 1

    def test_unreachable_tol_is_engine_error(self, capsys, tmp_path):
        # No attempt reaches a spread of 1e-320: ConvergenceError, exit 1.
        path = tmp_path / "u.json"
        write_matrix(path, haar_unitary(5, 1))
        code, out, err = run_cli(capsys, "scale", str(path), "--tol", "1e-320")
        assert code == 1 and out == ""
        assert err.startswith("error: no convergence to spread 1e-320 after 9 attempts")
        assert "Traceback" not in err


class TestSeedValidation:
    # Neither input needs a scaling restart, so the seed is never used;
    # it is still rejected up front.
    @pytest.mark.parametrize(
        "command, matrix",
        [("decompose", random_xu(6, seed=1)), ("scale", random_xu(4, seed=6))],
    )
    def test_negative_seed_is_parse_error(self, capsys, tmp_path, command, matrix):
        path = tmp_path / "m.json"
        write_matrix(path, matrix)
        code, out, err = run_cli(capsys, command, str(path), "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["decompose", "scale"])
    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_exits_2_before_reading(
        self, capsys, tmp_path, monkeypatch, command, seed
    ):
        def no_read(path, parse):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr("xubirkhoff.cli._load_json", no_read)
        dest = tmp_path / "out.json"
        argv = [command, "x.json", f"--seed={seed}", "--output", str(dest)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --seed must be an integer >= 0, got {seed}\n"
        assert not dest.exists()


class TestTolValidation:
    # Never read: the check must come first.
    INPUTS = {
        "decompose": ["x.json"],
        "scale": ["x.json"],
        "verify": ["d.json", "x.json"],
    }

    @pytest.mark.parametrize("command", ["decompose", "scale", "verify"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_tol_exits_2_before_reading(
        self, capsys, tmp_path, monkeypatch, command, tol
    ):
        def no_read(path, parse):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr("xubirkhoff.cli._load_json", no_read)
        dest = tmp_path / "out.json"
        argv = [command, *self.INPUTS[command], f"--tol={tol}"]
        code, out, err = run_cli(capsys, *argv, "--output", str(dest))
        assert code == 2
        assert out == ""
        assert "--tol" in err
        assert not dest.exists()


class TestPOption:
    @pytest.mark.parametrize(
        "method, code", [("auto", 2), ("prime", 2), ("xu3", 0)]
    )
    def test_p_only_with_xu3(self, capsys, tmp_path, method, code):
        path = tmp_path / "x3.json"
        write_matrix(path, random_xu(3, seed=2))
        dest = tmp_path / "d.json"
        argv = ["decompose", str(path), "--method", method, "--p", "0.5"]
        got, _, err = run_cli(capsys, *argv, "--output", str(dest))
        assert got == code
        if code:
            assert "--p" in err
            assert not dest.exists()
        else:
            assert json.loads(dest.read_text())["engine"] == "xu3"

    def test_non_finite_p_is_usage_error(self, capsys, tmp_path):
        # The error names p, not the matrix that verify would blame for
        # the NaN weights.
        path = tmp_path / "x3.json"
        write_matrix(path, random_xu(3, seed=2))
        dest = tmp_path / "d.json"
        argv = ["decompose", str(path), "--method", "xu3", "--p", "nan"]
        code, out, err = run_cli(capsys, *argv, "--output", str(dest))
        assert code == 2 and out == ""
        assert "p must be finite" in err
        assert "matrix" not in err
        assert not dest.exists()


class TestTables:
    def test_pitch_table_n5(self, capsys):
        code, out, _ = run_cli(capsys, "pitch-table", "5")
        assert code == 0
        d = json.loads(out)
        assert d["x"] == [[1, 3, 2, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 2, 3, 1]]
        assert d["y"] == [[1, 2, 3, 4], [3, 1, 4, 2], [2, 4, 1, 3], [4, 3, 2, 1]]

    def test_pitch_table_composite_fails(self, capsys):
        code, _, _ = run_cli(capsys, "pitch-table", "6")
        assert code == 1

    def test_transfer_n4(self, capsys):
        code, out, _ = run_cli(capsys, "transfer", "4", "1", "2")
        assert code == 0
        d = json.loads(out)
        assert d["block_dims"] == [4, 2]
        assert d["pitches"] is None
        assert d["max_line_sum"] < 1e-12

    def test_transfer_n5_pitches(self, capsys):
        code, out, _ = run_cli(capsys, "transfer", "5", "1", "2")
        assert code == 0
        assert json.loads(out)["pitches"] == [3, 2]

    def test_transfer_out_of_range(self, capsys):
        # A bad index is bad input (exit 2), not an engine error.
        code, _, _ = run_cli(capsys, "transfer", "4", "5", "1")
        assert code == 2

    @pytest.mark.parametrize("n, r, s", [("5", "0", "1"), ("5", "1", "5"), ("1", "1", "1")])
    def test_transfer_bad_index_writes_nothing(self, capsys, tmp_path, n, r, s):
        dest = tmp_path / "out.json"
        code, out, err = run_cli(capsys, "transfer", n, r, s, "--output", str(dest))
        assert code == 2
        assert out == "" and "error:" in err
        assert not dest.exists()


class TestDimensionArgs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "0"],
            ["sample", "-3"],
            ["sample", "five"],
            ["transfer", "0", "1", "1"],
            ["pitch-table", "0"],
            ["pitch-table", "-5"],
        ],
    )
    def test_non_positive_size_exits_2_before_work(self, capsys, tmp_path, argv):
        dest = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            main([*argv, "--output", str(dest)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "argument n: must be a positive integer" in err
        assert not dest.exists()

    @pytest.mark.parametrize("n", ["1", "4"])
    def test_pitch_table_non_prime_is_engine_error(self, capsys, tmp_path, n):
        dest = tmp_path / "out.json"
        code, _, err = run_cli(capsys, "pitch-table", n, "--output", str(dest))
        assert code == 1
        assert "prime" in err
        assert not dest.exists()

    def test_smallest_sizes_still_work(self, capsys):
        assert run_cli(capsys, "sample", "1", "--kind", "unitary")[0] == 0
        code, out, _ = run_cli(capsys, "pitch-table", "2")
        assert code == 0
        assert json.loads(out) == {"n": 2, "x": [[1]], "y": [[1]]}
        # n = 1 has no transfer index: bad input.
        assert run_cli(capsys, "transfer", "1", "1", "1")[0] == 2


class TestSelfcheck:
    def test_failing_check_is_reported(self, capsys, monkeypatch):
        from xubirkhoff import selfcheck

        def broken():
            raise AssertionError("deliberately broken")

        checks = list(selfcheck.CHECKS)
        name = checks[3][0]
        checks[3] = (name, broken)
        monkeypatch.setattr(selfcheck, "CHECKS", checks)
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 1
        assert f"FAIL {name}: deliberately broken" in out.splitlines()
        assert out.splitlines()[-1] == "16/17 checks passed"

    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("ok", "FAIL"))]
        assert lines and all(ln.startswith("ok") for ln in lines)
