"""Command-line front end.

Subcommands: generate (write phase data), verify (exhaustive correlation
checks), bounds (lower bounds and the optimality factor), tables (built-in
parameter sweeps), profile (per-pair correlation magnitudes as CSV).

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 I/O
failure. verify prints the reports of the engine dispatch correlation.verify.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
import warnings
from collections.abc import Iterable
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
from .codebook import PhaseMatrix, SequenceFamily, build_set
from .codebook import _check_family_indices, _check_in_range, _phase_dtype, _steps
from .errors import OutOfRangeError, PreconditionViolatedError, QcssError, ShapeMismatchError
from .modarith import Factorization, default_exponent, factorize, pi_perm, power_perm, verify_unique_solution

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_IO = 3

SCHEMA = "qcss/1"

_CSV_HEADER = re.compile(r"#\s*N=(\d+),\s*k=(\d+),\s*m=(\d+),\s*e=(\d+)")
# numpy's C loader for the CSV data rows; "#" lines and empty lines are skipped.
_CSV_ROWS = dict(delimiter=",", dtype=np.int64, comments="#", ndmin=2)


# ---------------------------------------------------------------------------
# serialization


@functools.lru_cache(maxsize=4)  # the CSV and the JSON tables of two moduli
def _tokens(n: int, sep: str, end: str) -> tuple[np.ndarray, np.ndarray]:
    """Two tables of the N decimal strings, each followed by sep in the
    first and by end in the second, as NUL-padded bytes of one width. Built
    once per modulus and separator, not per matrix, and read-only, as every
    caller shares them."""
    digits = [str(v) for v in range(n)]
    width = len(digits[-1]) + max(len(sep), len(end))
    tables = tuple(np.array([(d + tail).encode() for d in digits], dtype=f"S{width}") for tail in (sep, end))
    for table in tables:
        table.setflags(write=False)
    return tables


def _rows_text(mat: PhaseMatrix, sep: str, end: str) -> str:
    """The rows of mat as text: every cell is str() of its value followed by
    sep, or by end in the last column. The cells' tokens are taken from the
    tables of _tokens and their bytes joined with the NUL padding dropped."""
    cells, ends = _tokens(mat.n, sep, end)
    text = cells.take(mat.phases)
    text[:, -1] = ends.take(mat.phases[:, -1])
    return text.tobytes().translate(None, b"\0").decode()


def matrix_to_csv_text(mat: PhaseMatrix, exponent: int) -> str:
    """Row-major integer CSV with a one-line metadata header."""
    return f"# N={mat.n}, k={mat.k}, m={mat.m}, e={exponent}\n" + _rows_text(mat, ",", "\n")


def _member_phases(cells) -> np.ndarray:
    """One member's decoded JSON cells as an array in the smallest unsigned
    type that holds them. Ragged rows and a non-integer, true or false cell
    raise QcssError, and a cell outside [0, 2**32) OutOfRangeError: no
    loadable N x N array has N > 2**32, and unsigned members never promote
    each other to float. An array is returned as it is."""
    if isinstance(cells, np.ndarray):
        return cells
    try:
        phases = np.array(cells)
        integer = not phases.size or phases.dtype.kind in "iu"
    except ValueError:  # ragged rows
        integer = False
    if not integer:
        raise QcssError("member phases: ragged rows or a non-integer cell")
    if phases.ndim == 2:
        # np.array reads JSON true/false among integers as 1/0, so only the
        # cells that read 0 or 1 need their Python type looked at.
        where = zip(*(axis.tolist() for axis in np.nonzero((phases == 0) | (phases == 1))))
        if any(type(cells[r][c]) is bool for r, c in where):
            raise QcssError("member phases: a non-integer cell (true or false)")
    if phases.min(initial=0) < 0 or phases.max(initial=0) >= 2**32:
        raise OutOfRangeError("phase entries must lie in [0, N)")
    return phases.astype(np.min_scalar_type(phases.max(initial=0)))


def _decode_object(pairs: list) -> dict:
    """object_pairs_hook of load_family_json: a member's phases become an
    array as soon as the member is decoded, so the bundle is never held as
    nested lists. A member _member_phases refuses keeps its list, so that
    family_from_json_obj names a bad schema or field before it."""
    obj = dict(pairs)
    with contextlib.suppress(QcssError, KeyError):
        obj["phases"] = _member_phases(obj["phases"])
    return obj


def _integer(name: str, value) -> int:
    """A JSON integer field; a float, a boolean or anything else raises QcssError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise QcssError(f"family bundle field {name!r} must be an integer, got {value!r}")
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


def _check_cells(n: int, shape: tuple[int, ...]) -> None:
    """Refuse cells that are not N x N before N is factorized: trial
    division of a huge N runs for minutes, and its cells show at once that
    it is wrong. An even or too small N is left to factorize to name."""
    if n >= 3 and n % 2 and shape != (n, n):
        raise ShapeMismatchError(f"phases must be {n}x{n}, got {shape}")


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
            raise QcssError(_first_bad_line(lines)) from None
    headers = [match for match in map(_CSV_HEADER.match, lines) if match]
    if not headers:
        raise QcssError("missing '# N=..., k=..., m=..., e=...' header line")
    n, k, m, e = (int(g) for g in headers[-1].groups())
    mat = PhaseMatrix(n, k, m, phases)
    power_perm(factorize(n).largest_prime, e)  # refuses unless gcd(p - 1, e) = 1
    return mat, e


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
        "members": [{"u": u, "k": mat.k, "m": mat.m, "phases": mat.phases.tolist()} for u, mat in enumerate(members)],
    }


def _member_text(u: int, mat: PhaseMatrix) -> str:
    """json.dumps of member u's record in family_to_json_obj, written by
    _rows_text; generate streams one at a time."""
    rows = _rows_text(mat, ", ", "], [")[: -len("], [")]
    return f'{{"u": {u}, "k": {mat.k}, "m": {mat.m}, "phases": [[{rows}]]}}'


# The layout generate writes: json.dumps of the bundle's fields with
# "members": [] last, cut before its _END, so that it ends in _MEMBERS; then
# each member's _member_text, joined by _SEP; then _END.
_MEMBERS, _SEP, _END = ', "members": [', ", ", "]}"
_MEMBER_HEAD = re.compile(r'\{"u": ([0-9]{1,19}), "k": ([0-9]{1,19}), "m": ([0-9]{1,19}), "phases": \[\[')
_BRACKETS = str.maketrans("[]", "  ")


def _written_member(text: str, pos: int) -> tuple[dict, int] | None:
    """(record, end) for the member _member_text wrote at text[pos:], with
    the record _decode_object gives; None for any other text. The cells are
    parsed by numpy, and the member is accepted only if _member_text writes
    it again byte for byte, so json would decode it to the same ints."""
    head = _MEMBER_HEAD.match(text, pos)
    end = text.find("}", head.end()) - len("]]") if head else -1  # "}" is rare, "]" in every row
    if end < 0:
        return None
    try:  # older numpy warns at a bad token, where numpy 2.4 raises
        cells = np.fromstring(text[head.end() : end].translate(_BRACKETS), dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    n = math.isqrt(cells.size)
    if not cells.size or n * n != cells.size or cells.min() < 0 or (top := cells.max()) >= n:
        return None
    u, k, m = map(int, head.groups())
    phases = cells.reshape(n, n)
    if not text.startswith(_member_text(u, PhaseMatrix._view(n, k, m, phases)), pos):
        return None
    return {"u": u, "k": k, "m": m, "phases": phases.astype(np.min_scalar_type(top))}, end + len("]]}")


def family_from_json_obj(obj: dict) -> tuple[list[PhaseMatrix], int, str]:
    """Inverse of family_to_json_obj: (members, exponent, kind). A bundle
    with a missing key, a non-integer field or cell or a wrong shape raises
    QcssError, and so does one the construction cannot have: an even or
    too small N, an inadmissible exponent, a "set" bundle that is not one
    set with 1 <= k < p0 and 0 <= m < N, or a "ccc" or "qcss" bundle whose
    members are not that family's (k, m) in order. The fields p0,
    set_size, flock_size, length and each member's u must be those of the
    family."""
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != SCHEMA:
        raise QcssError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")
    try:
        n, exponent, kind = _integer("n", obj["n"]), _integer("exponent", obj["exponent"]), obj["kind"]
        sizes = {name: _integer(name, obj[name]) for name in ("p0", "set_size", "flock_size", "length")}
        labels = [(_integer("k", rec["k"]), _integer("m", rec["m"])) for rec in obj["members"]]
        positions = [_integer("u", rec["u"]) for rec in obj["members"]]
        arrays = [_member_phases(rec["phases"]) for rec in obj["members"]]
    except KeyError as exc:
        raise QcssError(f"family bundle lacks the key {exc}") from None
    except TypeError:
        raise QcssError("family bundle members must be a list of objects") from None
    if not arrays:  # no cells to contradict a huge N before factorize
        raise QcssError("family bundle has no members")
    for array in arrays:
        _check_cells(n, array.shape)
    f = factorize(n)
    phases = np.array(arrays)  # after factorize, so every member is N x N
    phases.setflags(write=False)  # handed over to the members without a copy
    power_perm(f.largest_prime, exponent)  # refuses unless gcd(p - 1, e) = 1
    if kind == "set" and len(labels) == 1:
        members = [PhaseMatrix(n, *labels[0], phases[0])]
    elif kind in ("ccc", "qcss"):
        family = SequenceFamily(n, kind, phases, k=labels[0][0] if kind == "ccc" else None)
        if labels != [(mat.k, mat.m) for mat in family]:
            raise QcssError(f"members are not the (k, m) of a {kind} family in order")
        members = list(family.members)
    else:
        raise QcssError(f"a {kind!r} bundle of {len(labels)} sets: expected one set, or a ccc or qcss family")
    expected = {"p0": f.least_prime, "set_size": len(members), "flock_size": n, "length": n}
    for name, want in expected.items():
        if sizes[name] != want:
            raise QcssError(f"family bundle field {name!r} is {sizes[name]}, expected {want}")
    for u, at in enumerate(positions):
        if at != u:
            raise QcssError(f"member {u}: field 'u' is {at}, expected {u}")
    return members, exponent, kind


def _read(path: str | Path, decode):
    """decode(open text file); bad UTF-8, bad or too deeply nested JSON and
    a JSON integer past int's digit limit raise QcssError. Each of these is
    a ValueError or a RecursionError; decode lets no QcssError out."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return decode(fh)
        except (ValueError, RecursionError) as exc:
            raise QcssError(f"{path}: malformed file ({exc})") from None


_WINDOW = 1 << 20  # characters of JSON text read at a time, at first


def _generated_bundle(fh) -> dict | None:
    """The bundle of a file in the layout generate writes, read a window of
    the text at a time: a head that json.dumps writes again byte for byte,
    then members that _written_member parses, joined by _SEP, and _END at
    the end of the file. None for any other text."""
    text, pos = "", 0

    def refill() -> bool:  # at least what is pending, so a window grows geometrically; False at the end
        nonlocal text, pos
        more = fh.read(max(_WINDOW, len(text) - pos))
        text, pos = text[pos:] + more, 0
        return bool(more)

    while (at := text.find(_MEMBERS)) < 0:
        if "[" in text or not refill():  # generate's head holds no "[" before _MEMBERS
            return None
    head = text[: at + len(_MEMBERS)]
    bundle = json.loads(head + _END)
    if json.dumps(bundle) != head + _END:
        return None
    pos = len(head)
    while True:
        # A member as generate writes it ends at its first "}", and the two
        # characters after it are _SEP or _END.
        while ((end := text.find("}", pos)) < 0 or len(text) < end + 3) and refill():
            pass
        if (found := _written_member(text, pos)) is None:
            return None
        record, pos = found
        bundle["members"].append(record)
        if not text.startswith(_SEP, pos):
            return bundle if text[pos:] == _END and not refill() else None
        pos += len(_SEP)


def _load_json(fh):
    """json.load(fh, object_pairs_hook=_decode_object). A file in generate's
    layout is streamed by _generated_bundle; any other text, and any error,
    goes to json.load of the whole text, so the result or error is always
    json.load's."""
    with contextlib.suppress(ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        if (bundle := _generated_bundle(fh)) is not None:
            return bundle
    fh.seek(0)
    return json.load(fh, object_pairs_hook=_decode_object)


def load_family_json(path: str | Path) -> tuple[list[PhaseMatrix], int, str]:
    return family_from_json_obj(_read(path, _load_json))


def load_matrix_csv(path: str | Path) -> tuple[PhaseMatrix, int]:
    return matrix_from_csv_text(_read(path, lambda fh: fh.read()))


# ---------------------------------------------------------------------------
# subcommands


def _parse_corrupt(raw: str) -> tuple[int, int, int, int]:
    try:
        k, m, s, t = (int(x) for x in raw.split(","))
    except ValueError:
        raise QcssError("--corrupt expects four comma-separated integers k,m,s,t") from None
    return k, m, s, t


def _modulus(args) -> tuple[Factorization, int, int, int]:
    """factorize(--n), N, p0 and the exponent: --exponent, or the smallest admissible one."""
    f = factorize(args.n)
    return f, f.n, f.least_prime, default_exponent(f.largest_prime) if args.exponent is None else args.exponent


def _cmd_generate(args) -> int:
    f, n, p0, e = _modulus(args)
    if args.m is not None and args.k is None:
        raise QcssError("--m requires --k")
    if args.k is not None:  # checked before the permutation table: 6.2 TiB at N = 3^25
        _check_family_indices(n, args.k)
    if args.m is not None:
        _check_in_range(n, m=args.m)
    perm = pi_perm(f, e)

    kind = "qcss" if args.k is None else "ccc" if args.m is None else "set"
    ks = range(1, p0) if args.k is None else [args.k]
    ms = range(n) if args.m is None else [args.m]
    labels = [(k, m) for k in ks for m in ms]
    # Exports are written set by set, each built into one N x N buffer: a
    # CSV or JSON export holds one matrix and its text, never a whole
    # (K, N, N) family or its nested lists.
    buffer = np.empty((1, n, n), dtype=_phase_dtype(n))
    steps = _steps(perm, ks, ms, 1, lambda i, j, count: buffer)
    sets = (PhaseMatrix._view(n, k, m, phases[0]) for (k, m), phases in zip(labels, steps))

    out = Path(args.out)
    if args.format == "json":
        out.parent.mkdir(parents=True, exist_ok=True)
        # The bytes of json.dumps(family_to_json_obj(all sets, ...)), one
        # member's text at a time: json.dump would run the pure-Python encoder.
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(family_to_json_obj([], n, e, kind) | {"set_size": len(labels)})[: -len(_END)])
            for u, mat in enumerate(sets):
                fh.write((_SEP if u else "") + _member_text(u, mat))
            fh.write(_END)
        written = [out]
    elif kind == "set":
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(matrix_to_csv_text(next(sets), e), encoding="utf-8")
        written = [out]
    else:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for mat in sets:
            path = out / f"n{n}_k{mat.k}_m{mat.m}.csv"
            path.write_text(matrix_to_csv_text(mat, e), encoding="utf-8")
            written.append(path)

    print(f"K={len(labels)} M={n} N={n} p0={p0} e={e}")
    print(f"wrote {len(written)} file(s) under {out}")
    return EXIT_OK


def _print_or_json(args, human_lines: Iterable[str], payload: dict) -> None:
    if getattr(args, "json", False):
        # One line: with an indent CPython's C encoder is skipped, about 4x slower.
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


# One human line per report, formatted from its JSON record.
_VERIFY_LINES = {
    "ccc": "ccc k={k}: {status} max_deviation={max_deviation:.6g} tol={tol:.6g} "
    "worst=(k={k}, m1={argmax[0]}, m2={argmax[1]}, tau={argmax[2]}) engine={engine}",
    "interset": "interset k1={k1} k2={k2}: {status} max={max_magnitude:.6f} "
    "dichotomy_deviation={dichotomy_deviation:.6g} engine={engine}",
    "qcss": "delta_max={delta_max:.6f} {status} argmax=(u1={argmax[0]}, u2={argmax[1]}, tau={argmax[2]}) "
    "expected={expected} tol={tol:.6g} engine={engine}",
}


def _cmd_verify(args) -> int:
    f, n, p0, e = _modulus(args)
    if args.tol is not None and not 0 <= args.tol < float("inf"):
        raise QcssError(f"--tol must be finite and >= 0, got {args.tol}")
    corrupt = None if args.corrupt is None else _parse_corrupt(args.corrupt)
    if corrupt and args.scope == "permutation":
        raise QcssError("--corrupt needs a correlation scope: ccc, interset or qcss")
    payload: dict = {"n": n, "p0": p0, "exponent": e, "scope": args.scope}

    if args.scope == "permutation":
        report = verify_unique_solution(f, pi_perm(f, e))
        line = "unique-solution: ok (all tau,c)"
        if not report.ok:
            first = report.violations[0]
            line = (
                f"unique-solution: FAILED ({len(report.violations)} violations; "
                f"first tau={first[0]} c={first[1]} count={first[2]})"
            )
        payload.update(ok=report.ok, violations=[list(v) for v in report.violations])
        _print_or_json(args, [line], payload)
        return EXIT_OK if report.ok else EXIT_VERIFY_FAILED

    reports = correlation.verify(args.scope, f, e, tol=args.tol, corrupt=corrupt)
    payload["engine"] = reports[0].engine
    if args.scope == "ccc":
        records = payload["families"] = [
            {"k": r.k, "ok": r.ok, "max_deviation": r.max_deviation, "tol": r.tol, "argmax": list(r.argmax)}
            for r in reports
        ]
    elif args.scope == "interset":
        records = payload["pairs"] = [
            {
                "k1": r.k1,
                "k2": r.k2,
                "ok": r.ok and r.dichotomy_ok,
                "max_magnitude": r.max_magnitude,
                "dichotomy_deviation": r.dichotomy_deviation,
                "argmax": list(r.argmax),
            }
            for r in reports
        ]
    else:  # qcss
        [report] = reports
        records = [
            {
                "ok": abs(report.delta_max - n) <= report.tol,
                "delta_max": report.delta_max,
                "expected": n,
                "tol": report.tol,
                "argmax": list(report.argmax),
                "set_size": report.set_size,
            }
        ]
        payload.update(records[0])

    payload["ok"] = ok = all(record["ok"] for record in records)
    template, engine = _VERIFY_LINES[args.scope], payload["engine"]
    # A generator: under --json no line is formatted.
    lines = (template.format(**rec, status="ok" if rec["ok"] else "FAILED", engine=engine) for rec in records)
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
    f = _check_family_indices(args.n, args.k1, args.k2)  # before the permutation table is built
    _check_in_range(f.n, m1=args.m1, m2=args.m2)
    perm = pi_perm(f, args.exponent)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qcss argument parser, built once per process: parse_args keeps
    no state in it, so in-process callers of main share one."""
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
    except MemoryError as exc:  # a modulus too large to build, such as N = 3^25
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
