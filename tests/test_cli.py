import contextlib
import csv
import decimal
import io
import json
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcss import (
    PhaseMatrix,
    Permutation,
    QcssError,
    build_ccc,
    build_qcss,
    build_set,
    correlation,
    factorize,
    pi_perm,
    verify_unique_solution,
)
from qcss import cli, codebook
from qcss.cli import (
    EXIT_BAD_ARGS,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    family_from_json_obj,
    family_to_json_obj,
    load_family_json,
    load_matrix_csv,
    main,
    matrix_from_csv_text,
    matrix_to_csv_text,
)


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_profile(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {int(r["tau"]): float(r["magnitude"]) for r in rows}


class TestGenerate:
    def test_single_set_matches_reference(self, tmp_path, ref35_k1, capsys):
        out = tmp_path / "c10.csv"
        code, stdout, _ = run_cli(
            "generate", "--n", "35", "--k", "1", "--m", "0", "--out", str(out), capsys=capsys
        )
        assert code == EXIT_OK
        assert "N=35" in stdout
        mat, exponent = load_matrix_csv(out)
        assert exponent == 5
        assert np.array_equal(mat.phases[:3], ref35_k1[:3])
        assert np.array_equal(mat.phases, ref35_k1)

    def test_full_pool_json(self, tmp_path, capsys):
        out = tmp_path / "pool.json"
        code, stdout, _ = run_cli(
            "generate", "--n", "15", "--out", str(out), "--format", "json", capsys=capsys
        )
        assert code == EXIT_OK
        assert "K=30 M=15 N=15" in stdout
        members, exponent, kind = load_family_json(out)
        assert (len(members), exponent, kind) == (30, 3, "qcss")
        f = factorize(15)
        rebuilt = build_qcss(f, pi_perm(f, exponent))
        assert all(a == b for a, b in zip(members, rebuilt.members))

    def test_family_csv_directory(self, tmp_path, capsys):
        out = tmp_path / "family"
        code, _, _ = run_cli(
            "generate", "--n", "9", "--k", "1", "--out", str(out), capsys=capsys
        )
        assert code == EXIT_OK
        files = sorted(out.glob("*.csv"))
        assert len(files) == 9
        mat, exponent = load_matrix_csv(out / "n9_k1_m4.csv")
        f = factorize(9)
        assert mat == build_set(1, 4, pi_perm(f, exponent))

    def test_even_modulus_rejected(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            "generate", "--n", "4", "--out", str(tmp_path / "x.csv"), capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert "modulus must be odd and >= 3" in stderr

    def test_m_requires_k(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            "generate", "--n", "15", "--m", "0", "--out", str(tmp_path / "x.csv"), capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert "--m requires --k" in stderr

    def test_io_failure(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        out = blocker / "sub" / "x.csv"  # parent path runs through a regular file
        code, _, stderr = run_cli(
            "generate", "--n", "15", "--k", "1", "--m", "0", "--out", str(out), capsys=capsys
        )
        assert code == EXIT_IO
        assert "i/o error" in stderr


class TestRoundTrips:
    def test_csv_round_trip_is_bit_identical(self, perm15):
        mat = build_set(2, 11, perm15)
        text = matrix_to_csv_text(mat, 3)
        back, exponent = matrix_from_csv_text(text)
        assert exponent == 3
        assert back == mat
        assert back.phases.tobytes() == mat.phases.tobytes()

    def test_json_round_trip_is_bit_identical(self, perm15):
        f = factorize(15)
        family = build_qcss(f, perm15)
        obj = family_to_json_obj(list(family.members), 15, 3, "qcss")
        assert obj["schema"] == "qcss/1"
        decoded = json.loads(json.dumps(obj))
        members, exponent, kind = family_from_json_obj(decoded)
        assert (exponent, kind) == (3, "qcss")
        assert all(a == b for a, b in zip(members, family.members))
        assert all(
            a.phases.tobytes() == b.phases.tobytes() for a, b in zip(members, family.members)
        )


class TestVerify:
    @pytest.mark.parametrize("scope", ["permutation", "ccc", "interset", "qcss"])
    def test_scopes_pass(self, scope, capsys):
        code, stdout, _ = run_cli("verify", "--n", "15", "--scope", scope, capsys=capsys)
        assert code == EXIT_OK
        assert "FAILED" not in stdout

    def test_permutation_output(self, capsys):
        _, stdout, _ = run_cli("verify", "--n", "15", "--scope", "permutation", capsys=capsys)
        assert "unique-solution: ok (all tau,c)" in stdout

    def test_permutation_failure(self, monkeypatch, capsys):
        # A shuffled table lacks the unique-solution property: exit 1, and
        # the report lists every (tau, c, count) whose count is not 1.
        table = list(range(15))
        random.Random(1).shuffle(table)
        perm = Permutation(15, table)
        monkeypatch.setattr(cli, "pi_perm", lambda f, e: perm)
        violations = verify_unique_solution(factorize(15), perm).violations
        assert violations
        code, stdout, _ = run_cli("verify", "--n", "15", "--scope", "permutation", "--json", capsys=capsys)
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads(stdout)
        assert payload["ok"] is False
        assert payload["violations"] == [list(v) for v in violations]
        code, stdout, _ = run_cli("verify", "--n", "15", "--scope", "permutation", capsys=capsys)
        tau, c, count = violations[0]
        assert code == EXIT_VERIFY_FAILED
        assert stdout == (
            f"unique-solution: FAILED ({len(violations)} violations; first tau={tau} c={c} count={count})\n"
        )

    def test_qcss_output(self, capsys):
        _, stdout, _ = run_cli("verify", "--n", "15", "--scope", "qcss", capsys=capsys)
        assert "delta_max=15.000000 ok" in stdout

    def test_json_report(self, capsys):
        code, stdout, _ = run_cli(
            "verify", "--n", "15", "--scope", "qcss", "--json", capsys=capsys
        )
        assert code == EXIT_OK
        assert stdout.count("\n") == 1 and stdout.endswith("}\n")
        payload = json.loads(stdout)
        assert payload["ok"] is True
        assert payload["set_size"] == 30
        assert payload["delta_max"] == pytest.approx(15, abs=1e-5)

    def test_corruption_fails_with_witness(self, capsys):
        code, stdout, _ = run_cli(
            "verify", "--n", "35", "--scope", "ccc", "--corrupt", "1,2,3,4", capsys=capsys
        )
        assert code == EXIT_VERIFY_FAILED
        assert "ccc k=1: FAILED" in stdout
        assert "m1=" in stdout and "tau=" in stdout

    def test_bad_corrupt_argument(self, capsys):
        code, _, stderr = run_cli(
            "verify", "--n", "15", "--scope", "ccc", "--corrupt", "1;2", capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert "--corrupt" in stderr

    @pytest.mark.parametrize("argv", [("--corrupt", ""), ("--corrupt=",)], ids=["separate", "joined"])
    def test_empty_corrupt_refused(self, argv, capsys):
        # An empty value ran the clean exact engine and exited 0.
        code, stdout, stderr = run_cli("verify", "--n", "15", "--scope", "qcss", *argv, capsys=capsys)
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        assert stderr.count("\n") == 1 and "--corrupt" in stderr

    def test_interset_corruption_fails(self, capsys):
        code, stdout, _ = run_cli(
            "verify", "--n", "15", "--scope", "interset", "--corrupt", "2,4,0,6", capsys=capsys
        )
        assert code == EXIT_VERIFY_FAILED
        assert "interset k1=1 k2=2: FAILED" in stdout
        assert "engine=fft" in stdout

    @pytest.mark.parametrize("corrupt", ["1,0,99,0", "9,0,0,0", "0,0,0,0", "1,15,0,0", "1,0,0,-1"])
    def test_corrupt_out_of_range(self, corrupt, capsys):
        code, stdout, stderr = run_cli(
            "verify", "--n", "15", "--scope", "qcss", "--corrupt", corrupt, capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        assert stderr.count("\n") == 1 and "out of range" in stderr

    def test_corrupt_needs_correlation_scope(self, capsys):
        code, _, stderr = run_cli(
            "verify", "--n", "15", "--scope", "permutation", "--corrupt", "1,0,0,0", capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert stderr.count("\n") == 1 and "--corrupt" in stderr

    @pytest.mark.parametrize("tol", ["-1", "-0.001", "nan", "inf", "1e400"])
    def test_negative_tol_rejected(self, tol, capsys):
        code, stdout, stderr = run_cli(
            "verify", "--n", "15", "--scope", "ccc", "--tol", tol, capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        assert stderr.count("\n") == 1 and "--tol" in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize("command", ["verify", "generate"])
    @pytest.mark.parametrize("message", ["Unable to allocate 6.16 TiB", ""])
    def test_out_of_memory_exits_2(self, command, message, tmp_path, monkeypatch, capsys):
        # pi_perm's table at N = 3^25 raises MemoryError; patched here, so
        # nothing large is allocated.
        def refuse(f, e):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "pi_perm", refuse)
        monkeypatch.setattr(correlation, "pi_perm", refuse)
        extra = ["--scope", "qcss"] if command == "verify" else ["--out", str(tmp_path / "pool.json")]
        code, stdout, stderr = run_cli(command, "--n", "15", *extra, capsys=capsys)
        assert (code, stdout) == (EXIT_BAD_ARGS, "")
        assert stderr.count("\n") == 1 and stderr.startswith("error: out of memory")
        assert message in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize("scope", ["ccc", "interset", "qcss"])
    def test_engine_named(self, scope, capsys):
        code, stdout, _ = run_cli("verify", "--n", "15", "--scope", scope, capsys=capsys)
        assert code == EXIT_OK
        assert all(line.endswith(" engine=exact") for line in stdout.splitlines())
        code, stdout, _ = run_cli("verify", "--n", "15", "--scope", scope, "--json", capsys=capsys)
        assert json.loads(stdout)["engine"] == "exact"
        code, stdout, _ = run_cli(
            "verify", "--n", "15", "--scope", scope, "--json", "--corrupt", "1,2,3,4", capsys=capsys
        )
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(stdout)["engine"] == "fft"

    @pytest.mark.parametrize(
        "argv,line,argmax",
        [
            (
                ("--n", "15", "--scope", "ccc", "--corrupt", "1,7,3,5"),
                "ccc k=1: FAILED max_deviation=0.415823 tol=0.000225 worst=(k=1, m1=7, m2=4, tau=5) engine=fft",
                [7, 4, 5],
            ),
            (
                ("--n", "15", "--scope", "qcss", "--corrupt", "1,7,3,5"),
                "delta_max=15.413607 FAILED argmax=(u1=17, u2=7, tau=1) expected=15 tol=1.5e-05 engine=fft",
                [17, 7, 1],
            ),
            (
                # max 9.674 <= N + tol, but 0.684 from N: fails on the dichotomy alone
                ("--n", "9", "--scope", "interset", "--corrupt", "2,0,0,0", "--tol", "0.68"),
                "interset k1=1 k2=2: FAILED max=9.674377 dichotomy_deviation=0.68404 engine=fft",
                [2, 0, -3],
            ),
        ],
    )
    def test_failed_report(self, argv, line, argmax, capsys):
        code, stdout, _ = run_cli("verify", *argv, capsys=capsys)
        assert (code, stdout.splitlines()[0]) == (EXIT_VERIFY_FAILED, line)
        code, stdout, _ = run_cli("verify", *argv, "--json", capsys=capsys)
        payload = json.loads(stdout)
        record = (payload.get("families") or payload.get("pairs") or [payload])[0]
        assert (code, payload["ok"], record["ok"], record["argmax"]) == (EXIT_VERIFY_FAILED, False, False, argmax)

    def test_json_formats_no_human_line(self, monkeypatch, capsys):
        argv = ("verify", "--n", "15", "--scope", "qcss", "--json")
        want = run_cli(*argv, capsys=capsys)

        class Unformattable(str):
            def format(self, *args, **kwargs):
                raise AssertionError("a human line was formatted under --json")

        monkeypatch.setattr(cli, "_VERIFY_LINES", {k: Unformattable(v) for k, v in cli._VERIFY_LINES.items()})
        assert run_cli(*argv, capsys=capsys) == want
        assert want[0] == EXIT_OK

    @pytest.mark.parametrize("scope,members", [("ccc", 289), ("interset", 578), ("qcss", 4624)])
    def test_oversized_fft_scan_rejected(self, scope, members, monkeypatch, capsys):
        # N = 289: L = 600; the pool needs about 8.3 GB. Nothing is built:
        # the memory check comes before the permutation. The scan holds
        # the spectra of one family's upper 161 members, of the second
        # family, or of the pool's upper 2320.
        monkeypatch.setattr(correlation, "_physical_memory", lambda: 2**20)
        monkeypatch.setattr(correlation, "pi_perm", lambda *a: pytest.fail("built past the memory check"))
        code, stdout, stderr = run_cli(
            "verify", "--n", "289", "--scope", scope, "--corrupt", "1,0,0,0", capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        held = {"ccc": 161, "interset": 289, "qcss": 2320}[scope]
        need = members * 289**2 * 2 + 600 * held * (16 * 289 + 17 * 32)
        need += correlation._workers() * (289 * (289 + 600) + 2 * 8192) * 16
        need += max(600 * 32 * 289 * 16, 600 * 32 * held * 8)
        assert stderr.count("\n") == 1 and f"needs about {need} bytes" in stderr


class TestLoaders:
    """Malformed input to the loaders raises QcssError, never a bare
    JSONDecodeError, KeyError or ValueError."""

    @staticmethod
    def bundle(perm15, kind="ccc"):
        members = [build_set(1, 4, perm15)] if kind == "set" else list(build_ccc(1, perm15).members)
        return json.loads(json.dumps(family_to_json_obj(members, 15, 3, kind)))

    @pytest.mark.parametrize("kind", ["set", "ccc"])
    def test_valid_bundle_loads(self, kind, perm15):
        members, exponent, loaded_kind = family_from_json_obj(self.bundle(perm15, kind))
        assert (len(members), exponent, loaded_kind) == ({"set": 1, "ccc": 15}[kind], 3, kind)

    @pytest.mark.parametrize("kind", ["set", "ccc"])
    def test_family_index_out_of_range(self, kind, perm15):
        obj = self.bundle(perm15, kind)
        obj["members"][0]["k"] = 999
        with pytest.raises(QcssError, match="k=999"):
            family_from_json_obj(obj)

    def test_set_index_out_of_range(self, perm15):
        obj = self.bundle(perm15, "set")
        obj["members"][0]["m"] = 15
        with pytest.raises(QcssError, match="m=15"):
            family_from_json_obj(obj)

    def test_inadmissible_exponent(self, perm15):
        obj = self.bundle(perm15)
        obj["exponent"] = 2  # gcd(5 - 1, 2) = 2 at N = 15
        with pytest.raises(QcssError, match="gcd"):
            family_from_json_obj(obj)

    def test_even_modulus(self, perm15):
        obj = self.bundle(perm15, "set")
        obj["n"] = 16
        with pytest.raises(QcssError, match="odd"):
            family_from_json_obj(obj)

    def test_unknown_kind(self, perm15):
        obj = self.bundle(perm15)
        obj["kind"] = "banana"
        with pytest.raises(QcssError, match="banana"):
            family_from_json_obj(obj)

    def test_duplicate_member(self, perm15):
        obj = self.bundle(perm15)
        obj["members"][1]["m"] = 0
        with pytest.raises(QcssError, match="in order"):
            family_from_json_obj(obj)

    def test_partial_pool(self, perm15):
        f = factorize(15)
        obj = family_to_json_obj(list(build_qcss(f, perm15).members)[:2], 15, 3, "qcss")
        with pytest.raises(QcssError, match="phases must be 30x15x15"):
            family_from_json_obj(json.loads(json.dumps(obj)))

    def test_two_sets_in_a_set_bundle(self, perm15):
        obj = self.bundle(perm15, "set")
        obj["members"].append(obj["members"][0])
        with pytest.raises(QcssError, match="one set"):
            family_from_json_obj(obj)

    @pytest.mark.parametrize(
        "header,size,match",
        [
            ("# N=4, k=0, m=7, e=2", 4, "odd"),
            ("# N=15, k=0, m=0, e=3", 15, "k=0"),
            ("# N=15, k=3, m=0, e=3", 15, "k=3"),
            ("# N=15, k=1, m=15, e=3", 15, "m=15"),
            ("# N=15, k=1, m=0, e=2", 15, "gcd"),
        ],
    )
    def test_csv_header_values(self, header, size, match):
        rows = [",".join(["0"] * size)] * size
        with pytest.raises(QcssError, match=match):
            matrix_from_csv_text("\n".join([header, *rows]))

    @pytest.mark.parametrize(
        "k,m,error,message",
        [
            (3, 0, "BadFamilyIndexError", "family index k=3 outside [1, 3)"),
            (1, 15, "OutOfRangeError", "m=15 outside [0, 15)"),
        ],
    )
    @pytest.mark.parametrize("loader", ["csv", "json set"])
    def test_set_labels_refused_by_the_set(self, loader, k, m, error, message):
        # The set itself refuses its labels; the loaders keep their error.
        mat = PhaseMatrix(15, 1, 0, np.zeros((15, 15), dtype=np.int64))
        obj = json.loads(json.dumps(family_to_json_obj([mat], 15, 3, "set")))
        obj["members"][0].update(k=k, m=m)
        with pytest.raises(QcssError) as exc:
            if loader == "csv":
                matrix_from_csv_text(matrix_to_csv_text(mat, 3).replace("k=1, m=0", f"k={k}, m={m}"))
            else:
                family_from_json_obj(obj)
        assert (type(exc.value).__name__, str(exc.value)) == (error, message)

    def test_bad_json(self, tmp_path):
        for text in ("{not json", "", "\xff\xfe"):
            path = tmp_path / "bad.json"
            path.write_bytes(text.encode("latin-1"))
            with pytest.raises(QcssError):
                load_family_json(path)
        path.write_text("[1, 2]")
        with pytest.raises(QcssError, match="schema"):
            load_family_json(path)

    @pytest.mark.parametrize("where", ["n", "cell"])
    def test_integer_beyond_the_digit_limit(self, where, perm15, tmp_path):
        # json's int() refuses more than 4300 digits with a bare ValueError.
        digits = "1" * 5000
        text = json.dumps(self.bundle(perm15))
        text = text.replace('"n": 15', f'"n": {digits}') if where == "n" else text.replace("[[0", f"[[{digits}", 1)
        path = tmp_path / "long.json"
        path.write_text(text)
        with pytest.raises(QcssError, match=f"{path}: malformed file .*digits"):
            load_family_json(path)

    @pytest.mark.parametrize("key", ["n", "exponent", "kind", "members", "k", "m", "phases"])
    def test_missing_key(self, key, perm15):
        obj = self.bundle(perm15)
        del (obj if key in obj else obj["members"][1])[key]
        with pytest.raises(QcssError, match=key):
            family_from_json_obj(obj)

    def test_non_integer_cell(self, perm15, tmp_path):
        for bad in (1.5, "3", None):
            obj = self.bundle(perm15)
            obj["members"][0]["phases"][4][2] = bad
            with pytest.raises(QcssError, match="non-integer"):
                family_from_json_obj(obj)
        lines = matrix_to_csv_text(build_set(1, 0, perm15), 3).splitlines()
        lines[3] = lines[3].replace(",", ",x", 1)
        (tmp_path / "bad.csv").write_text("\n".join(lines))
        with pytest.raises(QcssError, match="line 4: non-integer"):
            load_matrix_csv(tmp_path / "bad.csv")

    def test_boolean_cell(self, perm15):
        for bad in (True, False):
            obj = self.bundle(perm15)
            obj["members"][1]["phases"][4][2] = bad
            with pytest.raises(QcssError, match="non-integer"):
                family_from_json_obj(obj)
        obj = self.bundle(perm15)
        obj["members"][0]["phases"][0] = [True] * 15
        with pytest.raises(QcssError, match="non-integer"):
            family_from_json_obj(obj)

    @pytest.mark.parametrize("bad", [15.0, True, "15", None])
    def test_non_integer_n(self, bad, perm15):
        obj = self.bundle(perm15)
        obj["n"] = bad
        with pytest.raises(QcssError, match="'n' must be an integer"):
            family_from_json_obj(obj)

    @pytest.mark.parametrize("bad", [3.0, True, "3", None])
    def test_non_integer_exponent(self, bad, perm15):
        obj = self.bundle(perm15)
        obj["exponent"] = bad
        with pytest.raises(QcssError, match="'exponent' must be an integer"):
            family_from_json_obj(obj)

    @pytest.mark.parametrize("bad", [1.0, True, "1", None])
    def test_non_integer_k(self, bad, perm15):
        obj = self.bundle(perm15)
        obj["members"][1]["k"] = bad
        with pytest.raises(QcssError, match="'k' must be an integer"):
            family_from_json_obj(obj)

    @pytest.mark.parametrize("bad", [1.0, False, "1", None])
    def test_non_integer_m(self, bad, perm15):
        obj = self.bundle(perm15)
        obj["members"][1]["m"] = bad
        with pytest.raises(QcssError, match="'m' must be an integer"):
            family_from_json_obj(obj)

    @pytest.mark.parametrize("kind", ["set", "ccc"])
    @pytest.mark.parametrize("field,bad", [("p0", 7), ("set_size", 99), ("flock_size", 3), ("length", 8)])
    def test_size_field_mismatch(self, kind, field, bad, perm15):
        obj = self.bundle(perm15, kind)
        obj[field] = bad
        with pytest.raises(QcssError, match=f"'{field}' is {bad}, expected"):
            family_from_json_obj(obj)

    @pytest.mark.parametrize("kind", ["set", "ccc"])
    def test_member_position_mismatch(self, kind, perm15):
        obj = self.bundle(perm15, kind)
        obj["members"][-1]["u"] = 42
        with pytest.raises(QcssError, match="'u' is 42, expected"):
            family_from_json_obj(obj)

    @pytest.mark.parametrize("field", ["p0", "set_size", "flock_size", "length", "u"])
    def test_non_integer_size_field(self, field, perm15):
        obj = self.bundle(perm15)
        (obj if field in obj else obj["members"][0])[field] = 15.0
        with pytest.raises(QcssError, match=f"'{field}' must be an integer"):
            family_from_json_obj(obj)

    @pytest.mark.parametrize("bad", [5, None, [1], "ab"])
    def test_members_not_a_list_of_objects(self, bad, perm15):
        obj = self.bundle(perm15)
        obj["members"] = bad
        with pytest.raises(QcssError, match="members must be a list of objects"):
            family_from_json_obj(obj)

    def test_wrong_shape(self, perm15):
        obj = self.bundle(perm15)
        obj["members"][0]["phases"].pop()
        with pytest.raises(QcssError):
            family_from_json_obj(obj)
        obj = self.bundle(perm15)
        obj["members"][0]["phases"][2].pop()  # ragged
        with pytest.raises(QcssError):
            family_from_json_obj(obj)
        lines = matrix_to_csv_text(build_set(1, 0, perm15), 3).splitlines()
        for broken in (lines[:-1], lines[:3] + [lines[3] + ",1"] + lines[4:]):
            with pytest.raises(QcssError):
                matrix_from_csv_text("\n".join(broken))

    def test_cells_refused_before_factorize(self, monkeypatch, tmp_path):
        # 2^61 - 1 is prime: trial division of it would run for minutes.
        huge = 2305843009213693951
        obj = family_to_json_obj([PhaseMatrix(3, 1, 0, np.zeros((3, 3), dtype=int))], 3, 3, "set")
        obj["n"] = huge

        def refuse(*args):
            raise AssertionError("factorize ran")

        for module in (cli, codebook):
            monkeypatch.setattr(module, "factorize", refuse)
        monkeypatch.setattr(cli, "power_perm", refuse)
        (tmp_path / "huge.csv").write_text(f"# N={huge}, k=1, m=0, e=7\n0,0\n0,0\n")
        with pytest.raises(QcssError, match=f"phases must be {huge}x{huge}, got \\(2, 2\\)"):
            load_matrix_csv(tmp_path / "huge.csv")
        (tmp_path / "huge.json").write_text(json.dumps(obj))
        with pytest.raises(QcssError, match=f"phases must be {huge}x{huge}, got \\(3, 3\\)"):
            load_family_json(tmp_path / "huge.json")


class TestBounds:
    def test_tight_bound_report(self, capsys):
        code, stdout, _ = run_cli(
            "bounds", "--k", "140", "--m", "35", "--n", "35", "--delta", "35", capsys=capsys
        )
        assert code == EXIT_OK
        assert "rho=1.5382 (Liu) near-optimal" in stdout

    def test_generic_bound_report(self, capsys):
        code, stdout, _ = run_cli(
            "bounds", "--k", "30", "--m", "15", "--n", "15", "--delta", "15", capsys=capsys
        )
        assert code == EXIT_OK
        assert "rho=1.9653 (Welch) near-optimal" in stdout

    def test_close_sizes_report(self, capsys):
        # K/M - 1 cancels to 0 in floats; the Welch bound is 5/3.
        argv = ("--k", str(10**20 + 1), "--m", str(10**20), "--n", "5", "--delta", "2")
        code, stdout, stderr = run_cli("bounds", *argv, capsys=capsys)
        assert (code, stdout, stderr) == (EXIT_OK, "welch=1.666667\nrho=1.2000 (Welch) near-optimal\n", "")

    def test_bounds_only_when_delta_missing(self, capsys):
        code, stdout, _ = run_cli("bounds", "--k", "140", "--m", "35", "--n", "35", capsys=capsys)
        assert code == EXIT_OK
        assert "welch=" in stdout and "liu=" in stdout and "rho" not in stdout

    def test_degenerate_params(self, capsys):
        code, _, stderr = run_cli("bounds", "--k", "10", "--m", "20", "--n", "5", capsys=capsys)
        assert code == EXIT_BAD_ARGS
        assert "K < M" in stderr

    @pytest.mark.parametrize(
        "k,m,n,delta", [(30, 15, 15, "nan"), (30, 15, 15, "inf"), (2, 1, 2, "1.7e308")]
    )
    def test_unusable_delta_rejected(self, k, m, n, delta, capsys):
        code, stdout, stderr = run_cli(
            "bounds", "--k", str(k), "--m", str(m), "--n", str(n), "--delta", delta, capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert "rho" not in stdout
        assert stderr.count("\n") == 1 and "delta_max" in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--k", "1", "--m", "1", "--n", "1"), "K(2N - 1) - 1 must be positive"),
            (("--k", "5", "--m", "5", "--n", "5", "--delta", "3"), "lower bound is zero"),
        ],
    )
    def test_degenerate_bound_rejected(self, argv, message, capsys):
        code, stdout, stderr = run_cli("bounds", *argv, capsys=capsys)
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        assert stderr.count("\n") == 1 and message in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize("k,m,n", [(10**400, 10**400, 10**400), (10**200, 1, 10**200), (10**400, 1, 2)])
    def test_huge_parameters_rejected(self, k, m, n, capsys):
        # Intermediates overflow a float, but the Welch bound does not: 0, 7.07e99 and 1.1547.
        with decimal.localcontext(decimal.Context(prec=60)):
            want = float((decimal.Decimal(m) * n**2 * (k - m) / (k * (2 * n - 1) - 1)).sqrt())
        argv = ("bounds", "--k", str(k), "--m", str(m), "--n", str(n))
        code, stdout, stderr = run_cli(*argv, "--json", capsys=capsys)
        assert (code, stderr) == (EXIT_OK, "")
        welch = json.loads(stdout)["welch"]
        assert welch == pytest.approx(want, rel=1e-12, abs=0)  # exact at 0
        code, stdout, stderr = run_cli(*argv, capsys=capsys)
        assert (code, stdout, stderr) == (EXIT_OK, f"welch={welch:.6f}\n", "")

    def test_bound_beyond_floats_rejected(self, capsys):
        # The Welch bound itself, about 6.7e309, is past the largest float.
        argv = ("--k", str(10**311), "--m", str(10**310), "--n", str(10**310))
        code, stdout, stderr = run_cli("bounds", *argv, capsys=capsys)
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        assert stderr.count("\n") == 1 and "overflows" in stderr and "Traceback" not in stderr

    def test_huge_finite_delta(self, capsys):
        code, stdout, _ = run_cli(
            "bounds", "--k", "30", "--m", "15", "--n", "15", "--delta", "1e30", capsys=capsys
        )
        assert code == EXIT_OK
        assert "rho=1" in stdout and "not-near-optimal" in stdout

    def test_json_output(self, capsys):
        code, stdout, _ = run_cli(
            "bounds", "--k", "140", "--m", "35", "--n", "35", "--delta", "35", "--json",
            capsys=capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert payload["rho_4dp"] == "1.5382"
        assert payload["bound_used"] == "liu"


class TestTables:
    def test_text_output(self, capsys):
        code, stdout, _ = run_cli("tables", "iii", capsys=capsys)
        assert code == EXIT_OK
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        assert len(lines) == 20  # header + 19 rows
        assert "1.5382" in stdout and "1.0679" in stdout

    def test_csv_output(self, capsys):
        code, stdout, _ = run_cli("tables", "iv", "--format", "csv", capsys=capsys)
        assert code == EXIT_OK
        rows = stdout.strip().splitlines()
        assert rows[0] == "alphabet,K,M,N,rho"
        assert rows[1] == "Z_3*5,30,15,15,1.9653"
        assert len(rows) == 9

    def test_prime_square_column_order(self, capsys):
        code, stdout, _ = run_cli("tables", "v", "--format", "csv", capsys=capsys)
        assert code == EXIT_OK
        rows = stdout.strip().splitlines()
        assert rows[0] == "alphabet,M,N,K,rho"
        assert rows[1] == "Z_11*11,121,121,1210,1.2551"
        assert len(rows) == 12

    def test_json_output(self, capsys):
        code, stdout, _ = run_cli("tables", "near-optimal", "--format", "json", capsys=capsys)
        assert code == EXIT_OK
        rows = json.loads(stdout)
        assert len(rows) == 8
        assert rows[0]["rho"] == "1.9653"

    def test_write_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli("tables", "iii", "--format", "csv", "--out", str(out), capsys=capsys)
        assert code == EXIT_OK
        assert "1.5382" in out.read_text()


class TestProfile:
    def test_cross_family_pair(self, tmp_path, capsys):
        out = tmp_path / "cross.csv"
        code, _, _ = run_cli(
            "profile", "--n", "35", "--k1", "1", "--m1", "0", "--k2", "2", "--m2", "0",
            "--out", str(out), capsys=capsys,
        )
        assert code == EXIT_OK
        mags = read_profile(out)
        assert set(mags) == set(range(-34, 35))
        assert all(min(m, abs(m - 35)) < 1e-4 for m in mags.values())
        assert max(mags.values()) == pytest.approx(35, abs=1e-4)

    def test_in_phase_pair(self, tmp_path, capsys):
        out = tmp_path / "auto.csv"
        code, _, _ = run_cli(
            "profile", "--n", "35", "--k1", "1", "--m1", "0", "--k2", "1", "--m2", "0",
            "--out", str(out), capsys=capsys,
        )
        assert code == EXIT_OK
        mags = read_profile(out)
        assert mags[0] == pytest.approx(1225, abs=1e-4)
        assert all(m <= 1e-4 for tau, m in mags.items() if tau != 0)

    def test_same_family_distinct_sets(self, tmp_path, capsys):
        out = tmp_path / "intra.csv"
        code, _, _ = run_cli(
            "profile", "--n", "35", "--k1", "1", "--m1", "0", "--k2", "1", "--m2", "3",
            "--out", str(out), capsys=capsys,
        )
        assert code == EXIT_OK
        mags = read_profile(out)
        assert all(m <= 1e-4 for m in mags.values())


class TestArgumentsBeforePermutation:
    """generate and profile check their arguments before the permutation
    table is built: at N = 3^25 that table alone needs 6.2 TiB, so a late
    check would report running out of memory instead of the bad argument."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("generate", "--m", "0", "--out", "x.csv"), "--m requires --k"),
            (("generate", "--k", "5", "--out", "x.csv"), "family index k=5 outside [1, 3)"),
            (("generate", "--k", "1", "--m", "-1", "--out", "x.csv"), "m=-1 outside [0, 847288609443)"),
            (
                ("profile", "--k1", "5", "--m1", "0", "--k2", "1", "--m2", "0", "--out", "p.csv"),
                "family index k=5 outside [1, 3)",
            ),
            (
                ("profile", "--k1", "1", "--m1", "0", "--k2", "0", "--m2", "0", "--out", "p.csv"),
                "family index k=0 outside [1, 3)",
            ),
            (
                ("profile", "--k1", "1", "--m1", "0", "--k2", "2", "--m2", "847288609443", "--out", "p.csv"),
                "m2=847288609443 outside [0, 847288609443)",
            ),
        ],
    )
    def test_bad_argument_named(self, argv, message, tmp_path, monkeypatch, capsys):
        def refuse(f, e):
            raise MemoryError("Unable to allocate 6.16 TiB")

        monkeypatch.setattr(cli, "pi_perm", refuse)
        monkeypatch.chdir(tmp_path)
        command, *rest = argv
        code, stdout, stderr = run_cli(command, "--n", "847288609443", *rest, capsys=capsys)
        assert (code, stdout, stderr) == (EXIT_BAD_ARGS, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


class TestParserBuiltOnce:
    """main shares one parser across calls; no call leaves state in it."""

    def test_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_corrupt_then_clean(self, capsys):
        for scope in ("ccc", "interset", "qcss"):
            clean = ["verify", "--n", "15", "--scope", scope, "--json"]
            first = run_cli(*clean, capsys=capsys)
            code, stdout, _ = run_cli(*clean, "--corrupt", "1,2,3,4", capsys=capsys)
            assert (code, json.loads(stdout)["engine"]) == (EXIT_VERIFY_FAILED, "fft")
            again = run_cli(*clean, capsys=capsys)
            assert again == first
            assert (again[0], json.loads(again[1])["engine"]) == (EXIT_OK, "exact")

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "15"])  # --scope missing
        assert exc.value.code == EXIT_BAD_ARGS
        assert "--scope" in capsys.readouterr().err
        code, stdout, _ = run_cli("verify", "--n", "15", "--scope", "qcss", capsys=capsys)
        assert code == EXIT_OK and "delta_max=15.000000 ok" in stdout

    def test_generate_k_then_without(self, tmp_path, capsys):
        for name, extra, kind, size in [("a", ["--k", "2"], "ccc", 15), ("b", [], "qcss", 30)]:
            out = tmp_path / f"{name}.json"
            code, stdout, _ = run_cli("generate", "--n", "15", *extra, "--format", "json", "--out", str(out), capsys=capsys)
            assert code == EXIT_OK and stdout.startswith(f"K={size} ")
            members, _, loaded_kind = load_family_json(out)
            assert (loaded_kind, len(members)) == (kind, size)


def exit_code(argv):
    """main's exit code for argv, argparse's SystemExit included; its output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


class TestFuzz:
    """Any bounds or verify argv ends in a documented exit code, never in an
    exception out of main. The "--flag=value" form lets argparse read a
    value such as -inf or -1 as a value, not as an option."""

    @settings(max_examples=150, deadline=None)
    @given(kmn=st.lists(st.integers(-2, 10**400), min_size=3, max_size=3), delta=st.none() | st.floats())
    def test_bounds(self, kmn, delta):
        argv = ["bounds", *(f"--{name}={value}" for name, value in zip("kmn", kmn))]
        if delta is not None:
            argv.append(f"--delta={delta!r}")
        assert exit_code(argv) in (EXIT_OK, EXIT_BAD_ARGS)  # bounds verifies nothing

    # n, tol and --corrupt lean towards values that get past the argument
    # checks: a valid N half the time, a tol in [0, 1], and indices below 9.
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([-1, 0, 1, 2, 3, 4]) | st.sampled_from([9, 15, 21, 25, 35]),
        scope=st.sampled_from(["permutation", "ccc", "interset", "qcss"]),
        exponent=st.none() | st.integers(-1, 12),
        tol=st.none() | st.floats(0, 1) | st.floats(),
        corrupt=st.none() | st.lists(st.integers(-1, 8) | st.integers(-1, 40), min_size=4, max_size=4),
        as_json=st.booleans(),
    )
    def test_verify(self, n, scope, exponent, tol, corrupt, as_json):
        argv = ["verify", f"--n={n}", f"--scope={scope}"]
        argv += [] if exponent is None else [f"--exponent={exponent}"]
        argv += [] if tol is None else [f"--tol={tol!r}"]
        argv += [] if corrupt is None else [f"--corrupt={','.join(map(str, corrupt))}"]
        argv += ["--json"] if as_json else []
        code = exit_code(argv)
        assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_BAD_ARGS, EXIT_IO)
        if corrupt is None:  # every clean construction meets the paper's claims
            assert code != EXIT_VERIFY_FAILED


class TestProcessInvocation:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcss.cli", "tables", "iv"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "1.9653" in proc.stdout
