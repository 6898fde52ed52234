"""Command-line front end.

Subcommands: generate (write phase data), verify (exhaustive correlation
checks), bounds (lower bounds and the optimality factor), tables (built-in
parameter sweeps), profile (per-pair correlation magnitudes as CSV).

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 I/O
failure. verify runs the exact engine on clean constructions and the FFT
engine under --corrupt; an FFT scan that would not fit in physical memory
exits 2 before it starts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import correlation
from .bounds import (
    format_rho,
    liu_bound,
    optimality_factor,
    table_rows,
    welch_bound,
    QcssParams,
)
from .codebook import PhaseMatrix, SequenceFamily, build_ccc, build_qcss, build_set
from .codebook import _check_family_indices, _check_in_range
from .errors import PreconditionViolatedError, QcssError
from .modarith import Factorization, default_exponent, factorize, pi_perm, power_perm, verify_unique_solution

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_IO = 3

SCHEMA = "qcss/1"

_CSV_HEADER = re.compile(r"#\s*N=(\d+),\s*k=(\d+),\s*m=(\d+),\s*e=(\d+)")
# numpy's C loader for the CSV data rows; "#" lines and empty lines are skipped.
_CSV_ROWS = dict(delimiter=",", dtype=np.int64, comments="#", ndmin=2)


class _ArgError(QcssError):
    """Command-line usage error outside argparse's own checks."""


# ---------------------------------------------------------------------------
# serialization


def matrix_to_csv_text(mat: PhaseMatrix, exponent: int) -> str:
    """Row-major integer CSV with a one-line metadata header.

    Each cell is looked up in a table of the N decimal strings, so the text
    is exactly that of str() on every entry.
    """
    tokens = np.array([str(v) for v in range(mat.n)], dtype=object)
    lines = [f"# N={mat.n}, k={mat.k}, m={mat.m}, e={exponent}"]
    lines += map(",".join, tokens[mat.phases].tolist())
    return "\n".join(lines) + "\n"


def _phase_cells(cells: list) -> np.ndarray:
    """The (K, N, N) phases of a bundle's members, from their decoded JSON
    cells in one array; ragged rows or a non-integer or boolean cell raise
    QcssError."""
    try:
        phases = np.array(cells)
    except ValueError:  # ragged rows
        phases = np.array(None)
    if phases.size and phases.dtype.kind not in "iu":
        raise _ArgError("member phases: ragged rows or a non-integer cell")
    if phases.ndim == 3:
        # np.array reads JSON true/false among integers as 1/0, so only the
        # cells that read 0 or 1 need their Python type looked at.
        where = zip(*(axis.tolist() for axis in np.nonzero((phases == 0) | (phases == 1))))
        if any(type(cells[u][r][c]) is bool for u, r, c in where):
            raise _ArgError("member phases: a non-integer cell (true or false)")
    return phases


def _integer(name: str, value) -> int:
    """A JSON integer field; a float, a boolean or anything else raises QcssError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _ArgError(f"family bundle field {name!r} must be an integer, got {value!r}")
    return value


def _first_bad_line(lines: list[str]) -> str:
    """Name the first line with a cell the CSV row loader refuses.

    Runs only after np.loadtxt has refused the whole text. Its own error
    counts data rows, not file lines, and from 0 for a bad cell but from 1
    for a ragged row. When every line loads alone, the rows were ragged.
    """
    for number, line in enumerate(lines, 1):
        try:
            np.loadtxt([line], **_CSV_ROWS)
        except ValueError:
            return f"line {number}: non-integer cell in {line[:40]!r}"
    return "ragged rows"


def matrix_from_csv_text(text: str) -> tuple[PhaseMatrix, int]:
    """Inverse of matrix_to_csv_text; returns the matrix and the exponent.

    Blank lines, CRLF line ends and spaces around cells are accepted; the
    last header line wins. Malformed text, and a header whose N, k, m or e
    the construction cannot have, raise QcssError.
    """
    lines = [line.strip() for line in text.splitlines()]
    with warnings.catch_warnings():
        # A text without data rows loads as an empty matrix, which the
        # shape check refuses.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            phases = np.loadtxt(lines, **_CSV_ROWS)
        except ValueError:
            raise _ArgError(_first_bad_line(lines)) from None
    headers = [match for match in map(_CSV_HEADER.match, lines) if match]
    if not headers:
        raise _ArgError("missing '# N=..., k=..., m=..., e=...' header line")
    n, k, m, e = (int(g) for g in headers[-1].groups())
    power_perm(_check_family_indices(n, k).largest_prime, e)  # refuses unless gcd(p - 1, e) = 1
    _check_in_range(n, m=m)
    return PhaseMatrix(n, k, m, phases), e


def family_to_json_obj(members, n: int, exponent: int, kind: str) -> dict:
    """JSON bundle for a list of phase matrices; lossless round trip."""
    p0 = factorize(n).least_prime
    return {
        "schema": SCHEMA,
        "kind": kind,
        "n": n,
        "exponent": exponent,
        "p0": p0,
        "set_size": len(members),
        "flock_size": n,
        "length": n,
        "members": [
            {"u": u, "k": mat.k, "m": mat.m, "phases": mat.phases.tolist()}
            for u, mat in enumerate(members)
        ],
    }


def family_from_json_obj(obj: dict) -> tuple[list[PhaseMatrix], int, str]:
    """Inverse of family_to_json_obj: (members, exponent, kind). A bundle
    with a missing key, a non-integer field or cell or a wrong shape raises
    QcssError, and so does one the construction cannot have: an even or
    too small N, an inadmissible exponent, a "set" bundle that is not one
    set with 1 <= k < p0 and 0 <= m < N, or a "ccc" or "qcss" bundle whose
    members are not that family's (k, m) in order."""
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != SCHEMA:
        raise _ArgError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")
    try:
        n, exponent, kind = _integer("n", obj["n"]), _integer("exponent", obj["exponent"]), obj["kind"]
        power_perm(factorize(n).largest_prime, exponent)  # refuses unless gcd(p - 1, e) = 1
        labels = [(_integer("k", rec["k"]), _integer("m", rec["m"])) for rec in obj["members"]]
        phases = _phase_cells([rec["phases"] for rec in obj["members"]])
    except KeyError as exc:
        raise _ArgError(f"family bundle lacks the key {exc}") from None
    except TypeError:
        raise _ArgError("family bundle members must be a list of objects") from None
    if kind == "set" and len(labels) == 1:
        [(k, m)] = labels
        _check_family_indices(n, k)
        _check_in_range(n, m=m)
        return [PhaseMatrix(n, k, m, phases[0])], exponent, kind
    if kind not in ("ccc", "qcss"):
        raise _ArgError(f"a {kind!r} bundle of {len(labels)} sets: expected one set, or a ccc or qcss family")
    family = SequenceFamily(n, kind, phases, k=labels[0][0] if kind == "ccc" and labels else None)
    if labels != [(mat.k, mat.m) for mat in family]:
        raise _ArgError(f"members are not the (k, m) of a {kind} family in order")
    return list(family.members), exponent, kind


def _read(path: str | Path, decode):
    """decode(open text file); bad UTF-8 or bad JSON raises QcssError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return decode(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _ArgError(f"{path}: malformed file ({exc})") from None


def load_family_json(path: str | Path) -> tuple[list[PhaseMatrix], int, str]:
    return family_from_json_obj(_read(path, json.load))


def load_matrix_csv(path: str | Path) -> tuple[PhaseMatrix, int]:
    return matrix_from_csv_text(_read(path, lambda fh: fh.read()))


# ---------------------------------------------------------------------------
# shared helpers


def _make_perm(f: Factorization, exponent: int | None):
    e = default_exponent(f.largest_prime) if exponent is None else exponent
    return pi_perm(f, e), e


def _corrupt_member(family: SequenceFamily, k: int, m: int, s: int, t: int) -> SequenceFamily:
    """Test hook: add 1 (mod N) to entry (s, t) of member (k, m), in a copy
    of the family's array; a family without that member comes back as is."""
    for u, mat in enumerate(family):
        if (mat.k, mat.m) == (k, m):
            phases = family.phases.copy()
            phases[u, s, t] = (phases[u, s, t] + 1) % family.n
            return SequenceFamily(family.n, family.kind, phases, k=family.k)
    return family


def _parse_corrupt(raw: str, n: int, p0: int) -> tuple[int, int, int, int]:
    try:
        k, m, s, t = (int(x) for x in raw.split(","))
    except ValueError:
        raise _ArgError("--corrupt expects four comma-separated integers k,m,s,t") from None
    if not 1 <= k < p0 or not all(0 <= x < n for x in (m, s, t)):
        raise _ArgError(
            f"--corrupt {raw} out of range: need 1 <= k < {p0} and 0 <= m, s, t < {n}"
        )
    return k, m, s, t


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    f = factorize(args.n)
    perm, e = _make_perm(f, args.exponent)
    n, p0 = f.n, f.least_prime

    if args.m is not None and args.k is None:
        raise _ArgError("--m requires --k")
    if args.k is not None and args.m is not None:
        kind, labels = "set", [(args.k, args.m)]
    elif args.k is not None:
        kind, labels = "ccc", [(args.k, m) for m in range(n)]
    else:
        kind, labels = "qcss", [(k, m) for k in range(1, p0) for m in range(n)]
    # Exports are written set by set, so the sets are built one at a time: a
    # CSV export holds one N x N matrix, never a whole (K, N, N) family. The
    # first set is built, and its indices checked, before anything is written.
    sets = (build_set(k, m, perm) for k, m in labels)
    first = next(sets)

    out = Path(args.out)
    if args.format == "json":
        out.parent.mkdir(parents=True, exist_ok=True)
        # One dumps call: json.dump would write the text in many small pieces.
        out.write_text(json.dumps(family_to_json_obj([first, *sets], n, e, kind)), encoding="utf-8")
        written = [out]
    elif kind == "set":
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(matrix_to_csv_text(first, e), encoding="utf-8")
        written = [out]
    else:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for mat in itertools.chain([first], sets):
            path = out / f"n{n}_k{mat.k}_m{mat.m}.csv"
            path.write_text(matrix_to_csv_text(mat, e), encoding="utf-8")
            written.append(path)

    print(f"K={len(labels)} M={n} N={n} p0={p0} e={e}")
    print(f"wrote {len(written)} file(s) under {out}")
    return EXIT_OK


def _print_or_json(args, human_lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def _cmd_verify(args) -> int:
    f = factorize(args.n)
    n, p0 = f.n, f.least_prime
    if args.tol is not None and not args.tol >= 0:
        raise _ArgError(f"--tol must be >= 0, got {args.tol}")
    corrupt = _parse_corrupt(args.corrupt, n, p0) if args.corrupt else None
    if corrupt and args.scope == "permutation":
        raise _ArgError("--corrupt needs a correlation scope: ccc, interset or qcss")
    if corrupt:  # fail before building a family whose FFT scan cannot fit in memory
        correlation.check_scan_memory({"ccc": n, "interset": 2 * n}.get(args.scope, (p0 - 1) * n), n)
    perm, e = _make_perm(f, args.exponent)
    lines: list[str] = []
    payload: dict = {"n": n, "p0": p0, "exponent": e, "scope": args.scope}
    if args.scope != "permutation":
        # Clean constructions go to the exact engine; a corrupted phase
        # matrix is no longer built from (N, pi), so it needs the FFT engine.
        payload["engine"] = "fft" if corrupt else "exact"
    ok = True

    def ccc_family(k: int) -> SequenceFamily:
        return _corrupt_member(build_ccc(k, perm), *corrupt)

    if args.scope == "permutation":
        report = verify_unique_solution(f, perm)
        ok = report.ok
        if ok:
            lines.append("unique-solution: ok (all tau,c)")
        else:
            first = report.violations[0]
            lines.append(
                f"unique-solution: FAILED ({len(report.violations)} violations; "
                f"first tau={first[0]} c={first[1]} count={first[2]})"
            )
        payload["ok"] = ok
        payload["violations"] = [list(v) for v in report.violations]

    elif args.scope == "ccc":
        payload["families"] = []
        for k in range(1, p0):
            if corrupt:
                report = correlation.verify_ccc(ccc_family(k), tol=args.tol)
            else:
                report = correlation.verify_ccc_exact(k, perm, tol=args.tol)
            ok = ok and report.ok
            m1, m2, tau = report.argmax
            status = "ok" if report.ok else "FAILED"
            lines.append(
                f"ccc k={k}: {status} max_deviation={report.max_deviation:.6g} "
                f"tol={report.tol:.6g} worst=(k={k}, m1={m1}, m2={m2}, tau={tau}) "
                f"engine={report.engine}"
            )
            payload["families"].append(
                {
                    "k": k,
                    "ok": report.ok,
                    "max_deviation": report.max_deviation,
                    "tol": report.tol,
                    "argmax": [m1, m2, tau],
                }
            )
        payload["ok"] = ok

    elif args.scope == "interset":
        payload["pairs"] = []
        for k1 in range(1, p0):
            for k2 in range(k1 + 1, p0):
                if corrupt:
                    report = correlation.verify_interset(ccc_family(k1), ccc_family(k2), tol=args.tol)
                else:
                    report = correlation.verify_interset_exact(k1, k2, perm, tol=args.tol)
                pair_ok = report.ok and report.dichotomy_ok
                ok = ok and pair_ok
                status = "ok" if pair_ok else "FAILED"
                lines.append(
                    f"interset k1={k1} k2={k2}: {status} max={report.max_magnitude:.6f} "
                    f"dichotomy_deviation={report.dichotomy_deviation:.6g} engine={report.engine}"
                )
                payload["pairs"].append(
                    {
                        "k1": k1,
                        "k2": k2,
                        "ok": pair_ok,
                        "max_magnitude": report.max_magnitude,
                        "dichotomy_deviation": report.dichotomy_deviation,
                        "argmax": list(report.argmax),
                    }
                )
        payload["ok"] = ok

    else:  # qcss
        tol = 1e-6 * n if args.tol is None else args.tol
        if corrupt:
            family = _corrupt_member(build_qcss(f, perm), *corrupt)
            report = correlation.delta_max_scan(family, tol=tol)
        else:
            report = correlation.delta_max_exact(f, perm, tol=tol)
        ok = abs(report.delta_max - n) <= tol
        u1, u2, tau = report.argmax
        status = "ok" if ok else "FAILED"
        lines.append(
            f"delta_max={report.delta_max:.6f} {status} "
            f"argmax=(u1={u1}, u2={u2}, tau={tau}) expected={n} tol={tol:.6g} "
            f"engine={report.engine}"
        )
        payload.update(
            {
                "ok": ok,
                "delta_max": report.delta_max,
                "expected": n,
                "tol": tol,
                "argmax": [u1, u2, tau],
                "set_size": report.set_size,
            }
        )

    _print_or_json(args, lines, payload)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_bounds(args) -> int:
    K, M, N = args.k, args.m, args.n
    welch = welch_bound(K, M, N)
    try:
        liu = liu_bound(K, M, N)
    except PreconditionViolatedError:
        liu = None

    lines = [f"welch={welch:.6f}"]
    payload: dict = {"K": K, "M": M, "N": N, "welch": welch, "liu": liu}
    if liu is not None:
        lines.append(f"liu={liu:.6f}")
    if args.delta is not None:
        report = optimality_factor(QcssParams(K, M, N, args.delta))
        name = {"liu": "Liu", "welch": "Welch"}[report.bound_used]
        lines.append(f"rho={format_rho(report.rho)} ({name}) {report.classification}")
        payload.update(
            {
                "delta_max": args.delta,
                "rho": report.rho,
                "rho_4dp": format_rho(report.rho),
                "bound_used": report.bound_used,
                "classification": report.classification,
            }
        )
    _print_or_json(args, lines, payload)
    return EXIT_OK


def _cmd_tables(args) -> int:
    rows = table_rows(args.which)
    prime_square = args.which.lower() in ("v", "prime-square")
    # The prime-square sweep is conventionally printed (M, N, K, rho);
    # the other two (K, M, N, rho).
    if prime_square:
        header = ("alphabet", "M", "N", "K", "rho")
        cells = [(r.alphabet, r.flock_size, r.length, r.set_size, r.rho_4dp) for r in rows]
    else:
        header = ("alphabet", "K", "M", "N", "rho")
        cells = [(r.alphabet, r.set_size, r.flock_size, r.length, r.rho_4dp) for r in rows]

    if args.format == "json":
        out = [dict(zip(header, row)) for row in cells]
        text = json.dumps(out, indent=2)
    elif args.format == "csv":
        text = "\n".join([",".join(header)] + [",".join(str(c) for c in row) for row in cells])
    else:
        widths = [max(len(str(row[i])) for row in [header, *cells]) for i in range(len(header))]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        text = "\n".join(fmt.format(*map(str, row)).rstrip() for row in [header, *cells])

    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_profile(args) -> int:
    f = factorize(args.n)
    perm, _ = _make_perm(f, args.exponent)
    a = build_set(args.k1, args.m1, perm)
    b = build_set(args.k2, args.m2, perm)
    profile = correlation.set_xcorr_profile(a, b)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("tau,magnitude\n")
        for tau, mag in zip(profile.shifts.tolist(), profile.magnitudes.tolist()):
            fh.write(f"{tau},{mag:.12g}\n")
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcss",
        description="Build, verify and measure complementary code families over Z_N (odd N).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build phase matrices and write them out")
    g.add_argument("--n", type=int, required=True, help="modulus N (odd, >= 3)")
    g.add_argument("--exponent", type=int, default=None, help="power-map exponent e")
    g.add_argument("--k", type=int, default=None, help="family index; with --m selects one set")
    g.add_argument("--m", type=int, default=None, help="set index within the family")
    g.add_argument("--out", required=True, help="output file, or directory for csv family export")
    g.add_argument("--format", choices=["csv", "json"], default="csv")
    g.set_defaults(handler=_cmd_generate)

    v = sub.add_parser("verify", help="run exhaustive correlation checks")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--scope", choices=["permutation", "ccc", "interset", "qcss"], required=True)
    v.add_argument("--exponent", type=int, default=None)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--json", action="store_true", help="machine-readable report")
    v.add_argument(
        "--corrupt",
        default=None,
        metavar="K,M,S,T",
        help="testing aid: add 1 (mod N) to one phase entry, then verify on the FFT engine",
    )
    v.set_defaults(handler=_cmd_verify)

    b = sub.add_parser("bounds", help="lower bounds and optimality factor for (K, M, N)")
    b.add_argument("--k", type=int, required=True, help="set size K")
    b.add_argument("--m", type=int, required=True, help="flock size M")
    b.add_argument("--n", type=int, required=True, help="sequence length N")
    b.add_argument("--delta", type=float, default=None, help="achieved delta_max")
    b.add_argument("--json", action="store_true")
    b.set_defaults(handler=_cmd_bounds)

    t = sub.add_parser("tables", help="print a built-in parameter sweep")
    t.add_argument(
        "which",
        choices=["iii", "iv", "v", "optimal", "near-optimal", "prime-square"],
    )
    t.add_argument("--format", choices=["text", "csv", "json"], default="text")
    t.add_argument("--out", default=None, help="write to a file instead of stdout")
    t.set_defaults(handler=_cmd_tables)

    p = sub.add_parser("profile", help="export |set correlation| over all shifts as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--exponent", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except QcssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
