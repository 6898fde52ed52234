"""The benchmark's workloads: seeded op lists with independent expectations.

An op is one in-process ``qcss.cli.main(argv)`` call, or one call to a
public library function that no subcommand reaches on its own. Each op
carries a check that compares its outcome with an expectation the
benchmark derives without running the op: exit codes, the paper's closed
forms (delta_max = N, the digit permutation pi(i) = i - (i mod p) +
((i mod p)^e mod p), phases k*s*pi(t) + m*t mod N) and the bound formulas.

The seed picks one admissible exponent e per modulus, the ``--corrupt``
coordinates and the op order; the program sees only the generated argv
and files. Functions are looked up on their modules at call time so that
the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from math import comb, gcd
from pathlib import Path
from typing import Callable

import numpy as np

from qcss import bounds, cli, modarith

# Moduli of the paper's tables iii, iv and v, in table order.
TABLES = {
    "iii": bounds.OPTIMAL_SWEEP_FACTORS,
    "iv": bounds.NEAR_OPTIMAL_SWEEP_FACTORS,
    "v": bounds.PRIME_SQUARE_SWEEP_FACTORS,
}


@dataclass
class Op:
    """One timed call plus the check of its outcome.

    ``check`` returns None when the outcome matches the expectation, else a
    one-line description of the mismatch. ``values`` is the number of
    flock-summed correlation values a verify scan checks (0 for other ops).
    ``argv`` is set for cli ops; ``written``/``read`` list the files the op
    writes or reads.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    values: int = 0
    argv: list[str] | None = None
    written: tuple[Path, ...] = ()
    read: tuple[Path, ...] = ()


@dataclass
class Workload:
    name: str
    seed: int
    groups: list[list[Op]]  # ops inside a group keep their order (write, then read back)
    warmup: Op              # run once before timing; also what a set-up probe runs
    workdir: Path

    def ordered_ops(self, rng: random.Random) -> list[Op]:
        groups = list(self.groups)
        rng.shuffle(groups)
        return [op for group in groups for op in group]


# ---------------------------------------------------------------------------
# independent arithmetic


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def admissible_exponents(p: int) -> list[int]:
    """Exponents 2 <= e < p-1 with gcd(p-1, e) = 1; [3] for p = 3."""
    return [e for e in range(2, p - 1) if gcd(p - 1, e) == 1] or [3]


def closed_form_pi(n: int, e: int) -> np.ndarray:
    """pi(i) = i - (i mod p) + ((i mod p)^e mod p), p the largest prime of n."""
    p = prime_factors(n)[-1]
    i = np.arange(n, dtype=np.int64)
    r = i % p
    power = np.array([pow(x, e, p) for x in range(p)], dtype=np.int64)
    return i - r + power[r]


def expected_phases(n: int, pi: np.ndarray, k: int, m: int) -> np.ndarray:
    s = np.arange(n, dtype=np.int64)[:, None]
    t = np.arange(n, dtype=np.int64)[None, :]
    return (k * s * pi[None, :] + m * t) % n


def pool_size(n: int) -> int:
    """K = N * (p0 - 1) members in the pooled family."""
    return n * (prime_factors(n)[0] - 1)


def domain_values(scope: str, n: int) -> int:
    """Flock-summed correlation values a verify scope checks at modulus n.

    qcss: ordered member pairs over shifts 0..N-1, less the K trivial
    in-phase terms; ccc: every family's N^2 ordered pairs over N shifts;
    interset: every unordered family pair's N^2 member pairs over 2N-1 shifts.
    """
    p0 = prime_factors(n)[0]
    if scope == "qcss":
        k = pool_size(n)
        return k * k * n - k
    if scope == "ccc":
        return (p0 - 1) * n**3
    if scope == "interset":
        return comb(p0 - 1, 2) * n * n * (2 * n - 1)
    raise ValueError(f"no correlation domain for scope {scope!r}")


def table_moduli() -> list[int]:
    return [math.prod(f) for factors in TABLES.values() for f in factors]


# ---------------------------------------------------------------------------
# op constructors


def cli_op(label: str, argv: list[str], check, **kw) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        return code, out.getvalue()

    return Op(label, run, check, argv=argv, **kw)


def _exit_then(want: int, then=None):
    """Check the exit code, then (optionally) the captured stdout."""

    def check(result):
        code, out = result
        if code != want:
            return f"exit {code}, expected {want}"
        return then(out) if then else None

    return check


def _verify_op(scope: str, n: int, e: int, corrupt: tuple[int, int, int, int] | None = None) -> Op:
    argv = ["verify", "--n", str(n), "--scope", scope, "--exponent", str(e), "--json"]
    p0 = prime_factors(n)[0]
    tol = 1e-6 * n

    if scope == "qcss":
        k_pool = pool_size(n)
        u = None if corrupt is None else (corrupt[0] - 1) * n + corrupt[1]

        def report(out):
            rep = json.loads(out)
            if rep["set_size"] != k_pool:
                return f"set_size {rep['set_size']}, expected {k_pool}"
            if u is None and abs(rep["delta_max"] - n) > tol:
                return f"delta_max {rep['delta_max']!r}, expected {n}"
            if u is not None and rep["delta_max"] <= n + tol:
                return f"corruption of member {u} not seen: delta_max {rep['delta_max']!r}"
            if u is not None and u not in rep["argmax"][:2]:
                return f"argmax {rep['argmax']} does not name corrupted member {u}"
            return None

    elif scope == "ccc":

        def report(out):
            fams = json.loads(out)["families"]
            if [f["k"] for f in fams] != list(range(1, p0)):
                return f"families {[f['k'] for f in fams]}, expected k = 1..{p0 - 1}"
            worst = max(f["max_deviation"] for f in fams)
            return None if worst <= 1e-6 * n * n else f"max_deviation {worst!r}"

    else:  # interset: every magnitude 0 or N, and N is reached

        def report(out):
            pairs = json.loads(out)["pairs"]
            want = [(a, b) for a in range(1, p0) for b in range(a + 1, p0)]
            if [(q["k1"], q["k2"]) for q in pairs] != want:
                return "family pairs differ from all k1 < k2"
            for q in pairs:
                if abs(q["max_magnitude"] - n) > tol or q["dichotomy_deviation"] > tol:
                    return f"pair {q['k1']},{q['k2']}: max {q['max_magnitude']!r}, dichotomy {q['dichotomy_deviation']!r}"
            return None

    if corrupt is not None:
        argv += ["--corrupt", ",".join(map(str, corrupt))]
    label = f"verify {scope} N={n} e={e}" + (f" corrupt={corrupt}" if corrupt else "")
    check = _exit_then(0 if corrupt is None else 1, report)
    return cli_op(label, argv, check, values=domain_values(scope, n))


def _choose_exponents(rng: random.Random, moduli) -> dict[int, int]:
    return {n: rng.choice(admissible_exponents(prime_factors(n)[-1])) for n in moduli}


def _is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# workloads

SWEEP_MODULI = [n for n in range(9, 76, 2) if not (_is_prime(n) and n > 31)] + [105]
# N = 121 (K = 1210, matmul-bound) would add 35-40 s to every scan-large
# pass on a 2-core host: more than the benchmark's run budget allows.
LARGE_MODULI = [225]


def scan_sweep(seed: int, workdir: Path) -> Workload:
    """verify --scope {qcss, ccc, interset} for every odd N in [9, 75] except
    primes above 31, plus N = 105: 25 moduli, 75 ops expecting exit 0.

    Correlation does almost all the work. Prime N gives large pools at short
    length and composite N the opposite; small N exposes per-call overhead.
    """
    rng = random.Random(seed)
    exps = _choose_exponents(rng, SWEEP_MODULI)
    groups = [[_verify_op(scope, n, exps[n])] for n in SWEEP_MODULI for scope in ("qcss", "ccc", "interset")]
    return Workload("scan-sweep", seed, groups, groups[0][0], workdir)


def scan_large(seed: int, workdir: Path) -> Workload:
    """verify --scope qcss --corrupt k,m,s,t at N = 225, expecting exit 1
    and an argmax that names the corrupted member u = (k-1)*N + m.

    --corrupt keeps the op on the FFT engine whatever engine a clean pool
    would get. N = 225 (K = 450) holds about 0.83 GB of spectra, far beyond
    the last-level cache, and its pair products are most of the work.
    """
    rng = random.Random(seed)
    exps = _choose_exponents(rng, LARGE_MODULI + [15])

    def corrupt(n):
        return (rng.randrange(1, prime_factors(n)[0]), rng.randrange(n), rng.randrange(n), rng.randrange(n))

    groups = [[_verify_op("qcss", n, exps[n], corrupt(n))] for n in LARGE_MODULI]
    # The same kind of op at N = 15: a first op at full size would cost a whole pass.
    warmup = _verify_op("qcss", 15, exps[15], corrupt(15))
    return Workload("scan-large", seed, groups, warmup, workdir)


def build_export(seed: int, workdir: Path) -> Workload:
    """Permutations, unique-solution scans, file export and read-back, tables
    and bounds; no correlation at all. The bypass workload for every
    correlation change.
    """
    rng = random.Random(seed)
    moduli = table_moduli()
    exps = _choose_exponents(rng, sorted(set(moduli) | {35, 63, 105, 225}))
    groups: list[list[Op]] = []

    for n in moduli:
        groups.append([_pi_perm_op(n, exps[n])])
    permutation_ops = [_permutation_op(n, exps[n]) for n in sorted(m for m in set(moduli) if m <= 529) + [1155]]
    groups += [[op] for op in permutation_ops]
    for n in (35, 63, 105):
        groups.append(_json_pool_ops(n, exps[n], workdir))
    for n in (105, 225):
        groups.append(_csv_family_ops(n, exps[n], workdir))
    for which in TABLES:
        for fmt in ("text", "csv", "json"):
            groups.append([_tables_op(which, fmt, workdir)])
    for n in moduli:
        groups.append([_bounds_op(n)])
    return Workload("build-export", seed, groups, permutation_ops[0], workdir)


def _pi_perm_op(n: int, e: int) -> Op:
    want = closed_form_pi(n, e)

    def run():
        return modarith.pi_perm(modarith.factorize(n), e)

    def check(perm):
        if perm.modulus != n or not np.array_equal(np.asarray(perm.table), want):
            return f"pi_perm({n}, e={e}) differs from the closed form"
        return None

    return Op(f"pi_perm N={n} e={e}", run, check)


def _permutation_op(n: int, e: int) -> Op:
    def report(out):
        rep = json.loads(out)
        return None if rep["ok"] and rep["violations"] == [] else f"{len(rep['violations'])} violations"

    argv = ["verify", "--n", str(n), "--scope", "permutation", "--exponent", str(e), "--json"]
    return cli_op(f"verify permutation N={n} e={e}", argv, _exit_then(0, report))


def _generate_summary(n: int, count: int, e: int):
    p0 = prime_factors(n)[0]
    want = f"K={count} M={n} N={n} p0={p0} e={e}"

    def report(out):
        first = out.splitlines()[0] if out else ""
        return None if first == want else f"summary {first!r}, expected {want!r}"

    return report


def _check_member(mat, n: int, pi: np.ndarray, k: int, m: int) -> str | None:
    if (mat.n, mat.k, mat.m) != (n, k, m):
        return f"member (n, k, m) = {(mat.n, mat.k, mat.m)}, expected {(n, k, m)}"
    if not np.array_equal(mat.phases, expected_phases(n, pi, k, m)):
        return f"phases of member k={k} m={m} differ from k*s*pi(t) + m*t"
    return None


def _json_pool_ops(n: int, e: int, workdir: Path) -> list[Op]:
    path = workdir / f"pool_n{n}.json"
    k_pool = pool_size(n)
    argv = ["generate", "--n", str(n), "--exponent", str(e), "--format", "json", "--out", str(path)]
    gen = cli_op(
        f"generate json N={n} e={e}", argv, _exit_then(0, _generate_summary(n, k_pool, e)), written=(path,)
    )

    def check(loaded):
        members, exponent, kind = loaded
        if (exponent, kind, len(members)) != (e, "qcss", k_pool):
            return f"bundle (e, kind, K) = {(exponent, kind, len(members))}, expected {(e, 'qcss', k_pool)}"
        pi = closed_form_pi(n, e)
        for u, mat in enumerate(members):
            bad = _check_member(mat, n, pi, u // n + 1, u % n)
            if bad:
                return bad
        return None

    load = Op(f"load_family_json N={n}", lambda: cli.load_family_json(path), check, read=(path,))
    return [gen, load]


def _csv_family_ops(n: int, e: int, workdir: Path) -> list[Op]:
    out = workdir / f"ccc_n{n}"
    paths = [out / f"n{n}_k1_m{m}.csv" for m in range(n)]
    argv = ["generate", "--n", str(n), "--exponent", str(e), "--k", "1", "--out", str(out)]
    ops = [cli_op(f"generate csv N={n} e={e}", argv, _exit_then(0, _generate_summary(n, n, e)), written=tuple(paths))]
    pi = closed_form_pi(n, e)
    for m, path in enumerate(paths):

        def check(loaded, m=m):
            mat, exponent = loaded
            return f"exponent {exponent}, expected {e}" if exponent != e else _check_member(mat, n, pi, 1, m)

        ops.append(Op(f"load_matrix_csv N={n} m={m}", lambda path=path: cli.load_matrix_csv(path), check, read=(path,)))
    return ops


def expected_table(which: str) -> list[tuple[str, ...]]:
    """Rows of `qcss tables`, header first; rho from the bound formulas."""
    rows = []
    for factors in TABLES[which]:
        n = math.prod(factors)
        label = "Z_" + "*".join(map(str, factors))
        rho = bounds.format_rho(bounds.optimality_factor(bounds.theoretical_params(n)).rho)
        k = str(pool_size(n))
        rows.append((label, n, n, k, rho) if which == "v" else (label, k, n, n, rho))
    header = ("alphabet", "M", "N", "K", "rho") if which == "v" else ("alphabet", "K", "M", "N", "rho")
    return [header] + [tuple(map(str, r)) for r in rows]


def _tables_op(which: str, fmt: str, workdir: Path) -> Op:
    path = workdir / f"table_{which}.{fmt}"
    want = expected_table(which)

    def report(_out):
        text = path.read_text(encoding="utf-8")
        if fmt == "json":
            got = [tuple(want[0])] + [tuple(str(row[h]) for h in want[0]) for row in json.loads(text)]
        elif fmt == "csv":
            got = [tuple(line.split(",")) for line in text.splitlines()]
        else:
            got = [tuple(line.split()) for line in text.splitlines()]
        return None if got == want else f"table {which} ({fmt}) differs from the bound formulas"

    argv = ["tables", which, "--format", fmt, "--out", str(path)]
    return cli_op(f"tables {which} {fmt}", argv, _exit_then(0, report), written=(path,))


def _bounds_op(n: int) -> Op:
    k = pool_size(n)
    want = bounds.format_rho(bounds.optimality_factor(bounds.theoretical_params(n)).rho)

    def report(out):
        rep = json.loads(out)
        return None if rep["rho_4dp"] == want else f"rho {rep['rho_4dp']}, expected {want}"

    argv = ["bounds", "--k", str(k), "--m", str(n), "--n", str(n), "--delta", str(n), "--json"]
    return cli_op(f"bounds N={n}", argv, _exit_then(0, report))


WORKLOAD_FACTORIES = {"scan-sweep": scan_sweep, "scan-large": scan_large, "build-export": build_export}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOAD_FACTORIES[name](seed, workdir)
