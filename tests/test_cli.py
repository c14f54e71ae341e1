"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from xubirkhoff import (
    decompose_unitary,
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
    def test_report_reproduced_to_the_digit(self, capsys, tmp_path):
        mpath = tmp_path / "m.json"
        write_matrix(mpath, random_xu(5, seed=9))
        code, out, _ = run_cli(capsys, "decompose", str(mpath), "--method", "prime")
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
        assert code == 2 and "integers" in err

    @pytest.mark.parametrize("part", ["0.5", True, False])
    def test_non_number_weight_part(self, capsys, tmp_path, part):
        mpath, d = self._decomposition(capsys, tmp_path)
        d["terms"][0]["weight"][1] = part
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and "numbers" in err

    @pytest.mark.parametrize("part", ["1", True])
    def test_non_number_phase_part(self, capsys, tmp_path, part):
        from xubirkhoff import haar_unitary

        mpath = tmp_path / "u.json"
        write_matrix(mpath, haar_unitary(3, seed=4))
        d = perm_sum_to_json(decompose_unitary(haar_unitary(3, seed=4)))
        # Parsed and rebuilt: verify exits 1 only because a Haar unitary's
        # line sums are not 1.
        code, out, _ = self._verify(capsys, tmp_path, d, mpath)
        assert code == 1 and json.loads(out)["passed"]["reconstruction"]
        d["terms"][-1]["phases"][2][0] = part
        code, out, err = self._verify(capsys, tmp_path, d, mpath)
        assert code == 2
        assert out == "" and "numbers" in err

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
        from xubirkhoff import haar_unitary

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
        code, _, _ = run_cli(capsys, "transfer", "4", "5", "1")
        assert code == 1


class TestSelfcheck:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("ok", "FAIL"))]
        assert lines and all(ln.startswith("ok") for ln in lines)
