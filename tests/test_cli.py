import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from qcss import QcssError, build_ccc, build_qcss, build_set, correlation, factorize, pi_perm
from qcss import cli
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

    def test_qcss_output(self, capsys):
        _, stdout, _ = run_cli("verify", "--n", "15", "--scope", "qcss", capsys=capsys)
        assert "delta_max=15.000000 ok" in stdout

    def test_json_report(self, capsys):
        code, stdout, _ = run_cli(
            "verify", "--n", "15", "--scope", "qcss", "--json", capsys=capsys
        )
        assert code == EXIT_OK
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

    @pytest.mark.parametrize("tol", ["-1", "-0.001", "nan"])
    def test_negative_tol_rejected(self, tol, capsys):
        code, stdout, stderr = run_cli(
            "verify", "--n", "15", "--scope", "ccc", "--tol", tol, capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        assert stderr.count("\n") == 1 and "--tol" in stderr and "Traceback" not in stderr

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


    @pytest.mark.parametrize("scope,members", [("ccc", 289), ("interset", 578), ("qcss", 4624)])
    def test_oversized_fft_scan_rejected(self, scope, members, monkeypatch, capsys):
        # N = 289: L = 600; the pool needs about 14 GB. Nothing is built:
        # the memory check comes before the permutation.
        monkeypatch.setattr(correlation, "_physical_memory", lambda: 2**20)
        monkeypatch.setattr(cli, "_make_perm", lambda *a: pytest.fail("built past the memory check"))
        code, stdout, stderr = run_cli(
            "verify", "--n", "289", "--scope", scope, "--corrupt", "1,0,0,0", capsys=capsys
        )
        assert code == EXIT_BAD_ARGS
        assert stdout == ""
        need = 600 * members * (16 * 289 + 17 * 32) + correlation._workers() * (289 * (289 + 600) + 2 * 8192) * 16
        need += max(600 * 32 * 289 * 16, 600 * 32 * members * 8)
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

    def test_bad_json(self, tmp_path):
        for text in ("{not json", "", "\xff\xfe"):
            path = tmp_path / "bad.json"
            path.write_bytes(text.encode("latin-1"))
            with pytest.raises(QcssError):
                load_family_json(path)
        path.write_text("[1, 2]")
        with pytest.raises(QcssError, match="schema"):
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

    def test_bounds_only_when_delta_missing(self, capsys):
        code, stdout, _ = run_cli("bounds", "--k", "140", "--m", "35", "--n", "35", capsys=capsys)
        assert code == EXIT_OK
        assert "welch=" in stdout and "liu=" in stdout and "rho" not in stdout

    def test_degenerate_params(self, capsys):
        code, _, stderr = run_cli("bounds", "--k", "10", "--m", "20", "--n", "5", capsys=capsys)
        assert code == EXIT_BAD_ARGS
        assert "K < M" in stderr

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
