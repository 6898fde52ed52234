"""Property tests of the CSV and JSON codecs in qcss.cli.

The writers must produce the same bytes as the plain per-cell formula,
both round trips must be lossless, and the CSV reader must keep accepting
the loose layouts it always accepted and refusing malformed cells. The
JSON export and import hold one member at a time, not the whole bundle.
"""

import contextlib
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcss import OutOfRangeError, QcssError, build_ccc, build_qcss, build_set, cli, factorize, pi_perm
from qcss.cli import (
    family_from_json_obj,
    family_to_json_obj,
    load_family_json,
    main,
    matrix_from_csv_text,
    matrix_to_csv_text,
)
from qcss.codebook import PhaseMatrix
from qcss.modarith import default_exponent

PROPERTY = settings(max_examples=40, deadline=None)

moduli = st.integers(1, 12).map(lambda h: 2 * h + 1)  # odd N in [3, 25]
exponents = st.integers(1, 10**6)


@st.composite
def phase_matrix(draw, n=None):
    """A set with labels the construction can have (1 <= k < p0) and random phases."""
    n = draw(moduli) if n is None else n
    k = draw(st.integers(1, factorize(n).least_prime - 1))
    m = draw(st.integers(0, n - 1))
    return PhaseMatrix(n, k, m, draw(arrays(np.int64, (n, n), elements=st.integers(0, n - 1))))


@st.composite
def admissible_exponent(draw, n):
    """The first exponent from a drawn start on with gcd(p - 1, e) = 1, p the
    largest prime of N: the loaders refuse any other."""
    p = factorize(n).largest_prime
    return next(e for e in itertools.count(draw(exponents)) if math.gcd(p - 1, e) == 1)


@st.composite
def family(draw, kind):
    """The members of a bundle of the given kind, in its (k, m) layout,
    with seeded random phases."""
    n = draw(moduli)
    if kind == "set":
        return [draw(phase_matrix(n))]
    p0 = factorize(n).least_prime
    ks = [draw(st.integers(1, p0 - 1))] if kind == "ccc" else range(1, p0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [PhaseMatrix(n, k, m, rng.integers(0, n, (n, n))) for k in ks for m in range(n)]


def per_cell_csv(mat: PhaseMatrix, exponent: int) -> str:
    """The CSV writer's output spelled out with str() on every cell."""
    lines = [f"# N={mat.n}, k={mat.k}, m={mat.m}, e={exponent}"]
    lines += [",".join(str(x) for x in row) for row in mat.phases.tolist()]
    return "\n".join(lines) + "\n"


@PROPERTY
@given(phase_matrix(), exponents)
def test_csv_text_is_str_of_every_cell(mat, exponent):
    assert matrix_to_csv_text(mat, exponent) == per_cell_csv(mat, exponent)


@pytest.mark.parametrize("n", [105, 1001])
def test_csv_text_at_wider_tokens(n):
    """3- and 4-digit cells, the latter in uint16: the hypothesis moduli
    stop at N = 25. Every token width of the table shows up."""
    phases = np.random.default_rng(n).integers(0, n, (n, n))
    phases[0, :6] = [0, 9, 10, 99, 100, n - 1]
    mat = PhaseMatrix(n, 1, n - 1, phases)
    assert matrix_to_csv_text(mat, 5) == per_cell_csv(mat, 5)


def test_generated_csv_directory_is_str_of_every_cell(tmp_path):
    """Every file of a --k export at N = 105 is the per-cell text of its set."""
    f = factorize(105)
    e = default_exponent(f.largest_prime)
    perm = pi_perm(f, e)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--n", "105", "--k", "2", "--out", str(tmp_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"n105_k2_m{m}.csv" for m in range(105))
    for m in range(105):
        assert (tmp_path / f"n105_k2_m{m}.csv").read_text() == per_cell_csv(build_set(2, m, perm), e)


@PROPERTY
@given(phase_matrix(), st.data())
def test_csv_round_trip(mat, data):
    exponent = data.draw(admissible_exponent(mat.n))
    back, e = matrix_from_csv_text(matrix_to_csv_text(mat, exponent))
    assert back == mat and e == exponent


@PROPERTY
@given(st.sampled_from(["set", "ccc", "qcss"]), st.data())
def test_json_round_trip(kind, data):
    members = data.draw(family(kind))
    exponent = data.draw(admissible_exponent(members[0].n))
    obj = family_to_json_obj(members, members[0].n, exponent, kind)
    back, e, back_kind = family_from_json_obj(json.loads(json.dumps(obj)))
    assert back == members and (e, back_kind) == (exponent, kind)


@PROPERTY
@given(phase_matrix(), st.data())
def test_reader_accepts_loose_layout(mat, data):
    exponent = data.draw(admissible_exponent(mat.n))
    header, *rows = matrix_to_csv_text(mat, exponent).splitlines()
    pads = st.sampled_from(["", " ", "  ", "\t"])
    lines = [data.draw(pads) + header]
    for row in rows:
        lines += data.draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=2))  # blank lines
        left, right = data.draw(pads), data.draw(pads)  # around every cell of the row
        lines.append(",".join(left + cell + right for cell in row.split(",")))
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    back, e = matrix_from_csv_text(end.join(lines) + end)
    assert back == mat and e == exponent


BAD_CELLS = ["", "1.0", "True", "9223372036854775808", "-9223372036854775809", "x"]


@PROPERTY
@given(phase_matrix(), exponents, st.sampled_from(BAD_CELLS), st.data())
def test_reader_names_the_line_of_a_bad_cell(mat, exponent, bad, data):
    header, *rows = matrix_to_csv_text(mat, exponent).splitlines()
    r = data.draw(st.integers(0, mat.n - 1), label="row")
    c = data.draw(st.integers(0, mat.n - 1), label="column")
    cells = rows[r].split(",")
    cells[c] = bad
    rows[r] = ",".join(cells)
    blanks = data.draw(st.integers(0, 3), label="blank lines before the header")
    gap = data.draw(st.lists(st.sampled_from(["", "# note"]), max_size=3), label="lines before the bad row")
    text = "\n" * blanks + "\n".join([header, *rows[:r], *gap, *rows[r:]])
    with pytest.raises(QcssError, match=f"line {blanks + 1 + r + len(gap) + 1}: non-integer"):
        matrix_from_csv_text(text)


@PROPERTY
@given(phase_matrix(), exponents, st.booleans(), st.data())
def test_reader_rejects_ragged_row(mat, exponent, longer, data):
    header, *rows = matrix_to_csv_text(mat, exponent).splitlines()
    r = data.draw(st.integers(0, mat.n - 1), label="row")
    rows[r] = rows[r] + ",0" if longer else rows[r].rpartition(",")[0]
    with pytest.raises(QcssError):
        matrix_from_csv_text("\n".join([header, *rows]))


@PROPERTY
@given(phase_matrix(), exponents)
def test_reader_rejects_missing_header(mat, exponent):
    text = matrix_to_csv_text(mat, exponent).split("\n", 1)[1]
    with pytest.raises(QcssError, match="header"):
        matrix_from_csv_text(text)


@pytest.mark.parametrize("text", ["# N=3, k=1, m=0, e=3\n", "# N=3, k=1, m=0, e=3\n\n# note\n"])
def test_reader_rejects_header_without_rows(text):
    with pytest.raises(QcssError):
        matrix_from_csv_text(text)


def test_reader_takes_the_last_header():
    mat = PhaseMatrix(15, 1, 4, np.arange(225).reshape(15, 15) % 15)
    header, *rows = matrix_to_csv_text(mat, 3).splitlines()
    text = "\n".join(["# N=15, k=2, m=9, e=7", *rows[:5], header, *rows[5:]])
    back, e = matrix_from_csv_text(text)
    assert back == mat and e == 3


def generate_json(path, n, *selection):
    """qcss generate --format json of N's pool, or of the --k/--m selection."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--n", str(n), "--format", "json", "--out", str(path), *selection]) == 0


@pytest.mark.parametrize("n", [15, 35, 121])
@pytest.mark.parametrize("kind", ["qcss", "ccc", "set"])
def test_generated_json_is_one_dumps_of_the_bundle(kind, n, tmp_path):
    """The streamed export writes the bytes of one json.dumps of the whole bundle."""
    f = factorize(n)
    e = default_exponent(f.largest_prime)
    perm = pi_perm(f, e)
    k = f.least_prime - 1
    members, selection = {
        "qcss": (list(build_qcss(f, perm)), []),
        "ccc": (list(build_ccc(k, perm)), ["--k", str(k)]),
        "set": ([build_set(k, n - 1, perm)], ["--k", str(k), "--m", str(n - 1)]),
    }[kind]
    generate_json(tmp_path / "out.json", n, *selection)
    want = json.dumps(family_to_json_obj(members, n, e, kind)).encode()
    assert (tmp_path / "out.json").read_bytes() == want


def traced_peak(call):
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def pool105(tmp_path_factory):
    """The N = 105 pool's JSON bundle: 210 sets, 8.7 MiB."""
    path = tmp_path_factory.mktemp("pool") / "pool105.json"
    generate_json(path, 105)
    return path


def test_json_export_holds_one_member(pool105, tmp_path):
    """Whole-bundle nested lists peaked at 37 MiB: over four times the file."""
    path = tmp_path / "again.json"
    peak = traced_peak(lambda: generate_json(path, 105))
    assert path.read_bytes() == pool105.read_bytes()
    assert peak < path.stat().st_size / 4


def test_json_import_holds_compact_members(pool105):
    """The import holds a window of the text, the compact members and the
    family array, below the 8.7 MiB file. Nested lists of every member's
    cells peaked at 42.4 MiB, and the whole text with compact members at
    17.4 MiB."""
    peak = traced_peak(lambda: load_family_json(pool105))
    assert peak < pool105.stat().st_size


def bundle_text(edit):
    """A ccc bundle at N = 15 as JSON text, after edit(obj)."""
    perm = pi_perm(factorize(15), 3)
    obj = family_to_json_obj(list(build_ccc(1, perm)), 15, 3, "ccc")
    edit(obj)
    return json.dumps(obj)


def outcome(decode):
    """What decode() gives: the members with their dtypes, the exponent and
    the kind, or the (class, message) of its refusal."""
    try:
        members, e, kind = decode()
    except QcssError as exc:
        return type(exc), str(exc)
    return [(mat, mat.phases.dtype) for mat in members], e, kind


def windowed_load(path, streamed=True):
    """The outcome of load_family_json(path), checked to be the same with
    the reader's window cut to each of 1 to 7 characters. If streamed, no
    window may fall back to json.load of the whole text."""
    outcomes, whole = [], []
    for window in (cli._WINDOW, *range(1, 8)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_WINDOW", window)
            patch.setattr(json, "load", lambda *args, load=json.load, **kw: whole.append(window) or load(*args, **kw))
            outcomes.append(outcome(lambda: load_family_json(path)))
    assert outcomes == [outcomes[0]] * len(outcomes)
    assert not (streamed and whole), f"windows {whole} read the whole text"
    return outcomes[0]


def both_decoders(text, tmp_path):
    """The outcome of load_family_json, streamed at every window, and of
    family_from_json_obj on json.loads output, for one bundle text."""
    (tmp_path / "bundle.json").write_text(text)
    return [windowed_load(tmp_path / "bundle.json"), outcome(lambda: family_from_json_obj(json.loads(text)))]


def set_cell(u, r, c, value):
    def edit(obj):
        obj["members"][u]["phases"][r][c] = value

    return edit


RAGGED = (QcssError, "member phases: ragged rows or a non-integer cell")
BOOLEAN = (QcssError, "member phases: a non-integer cell (true or false)")
OUT_OF_RANGE = (OutOfRangeError, "phase entries must lie in [0, N)")


@pytest.mark.parametrize(
    "value,refusal",
    [
        (True, BOOLEAN),
        (False, BOOLEAN),
        (1.5, RAGGED),
        (2.0, RAGGED),
        (-1, OUT_OF_RANGE),
        (15, OUT_OF_RANGE),
        (2**32, OUT_OF_RANGE),
        (2**63 - 1, OUT_OF_RANGE),
        (2**63, RAGGED),  # uint64 among int64 cells: numpy promotes to float64
        (2**64, RAGGED),
    ],
)
@pytest.mark.parametrize("where", [(0, 0, 0), (0, 4, 2), (14, 14, 14)])
def test_bad_cell_refusal(value, refusal, where, tmp_path):
    """The same class and message as when the whole bundle was one np.array."""
    assert both_decoders(bundle_text(set_cell(*where, value)), tmp_path) == [refusal] * 2


def test_bad_schema_named_before_a_bad_cell(tmp_path):
    def edit(obj):
        set_cell(3, 1, 0, True)(obj)
        obj["schema"] = "qcss/0"

    refusal = (QcssError, "unsupported schema 'qcss/0', expected 'qcss/1'")
    assert both_decoders(bundle_text(edit), tmp_path) == [refusal] * 2


@pytest.mark.parametrize(
    "shape_edit",
    [
        lambda phases: phases.pop(),  # 14 x 15
        lambda phases: [row.pop() for row in phases],  # 15 x 14
        lambda phases: phases.append(phases[0]),  # 16 x 15
    ],
)
@pytest.mark.parametrize("u", [0, 7])
def test_members_of_different_shapes(shape_edit, u, tmp_path):
    """Each member is checked for its N x N shape, as a CSV matrix is."""
    text = bundle_text(lambda obj: shape_edit(obj["members"][u]["phases"]))
    shape = np.shape(json.loads(text)["members"][u]["phases"])
    assert shape != (15, 15)
    assert both_decoders(text, tmp_path) == [(QcssError, f"phases must be 15x15, got {shape}")] * 2


def test_unsigned_member_beside_a_negative_cell(tmp_path):
    """A member of cells 2**63 is out of range on its own: it is never
    promoted to float with the int64 cells of another member."""

    def edit(obj):
        obj["members"][0]["phases"] = [[2**63] * 15] * 15
        set_cell(1, 0, 0, -1)(obj)

    assert both_decoders(bundle_text(edit), tmp_path) == [OUT_OF_RANGE] * 2


@pytest.mark.parametrize("where", ["file", "member"])
def test_deeply_nested_json_refused(where, tmp_path):
    """Nesting past the interpreter's recursion limit is malformed JSON, not a RecursionError."""
    nested = "[" * 200_000 + "]" * 200_000
    text = nested if where == "file" else bundle_text(set_cell(0, 0, 0, "NESTED")).replace('"NESTED"', nested)
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(QcssError, match="malformed file"):
        load_family_json(path)


def whole_text_outcome(path):
    """The outcome of load_family_json when it decoded the whole text at once."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return QcssError, f"{path}: malformed file ({exc})"
    return outcome(lambda: family_from_json_obj(obj))


def reordered(text, members_first):
    obj = json.loads(text)
    members = obj.pop("members")
    return json.dumps({"members": members, **obj} if members_first else obj | {"members": members})


CCC15 = bundle_text(lambda obj: None)
# Well-formed bundles, which the reader streams, then layouts and malformed
# files that only a decode of the whole text names as before.
STREAMED = {
    "members first": reordered(CCC15, True),
    "members last": reordered(CCC15, False),
    "members twice, the last kept": '{"members": [{"u": 9}], ' + CCC15[1:],
    "indent 2": json.dumps(json.loads(CCC15), indent=2),
    "space around": " \n\t" + CCC15 + "\r\n ",
    "a long number and key cut at window edges": '{"x": 1234567890.125e-3, "' + "k" * 40 + '": 0, ' + CCC15[1:],
    "float fields": bundle_text(lambda obj: obj.update(exponent=-1.25e300, p0=10.5)),
}
WHOLE = {
    "members twice, a bad one last": CCC15[:-1] + ', "members": 5}',
    "trailing data": CCC15 + " x",
    "a second object": CCC15 + "{}",
    "truncated": CCC15[:-2],
    "cut inside a member": CCC15[: len(CCC15) // 2],
    "cut inside a number": CCC15[: CCC15.index("1", 2000) + 1],
    "byte order mark": "\ufeff" + CCC15,
    "top-level array": f"[{CCC15}]",
    "members not a list": bundle_text(lambda obj: obj.update(members={"u": 0})),
    "no members": bundle_text(lambda obj: obj.update(members=[])),
    "an empty object": "{}",
    "an empty file": "",
}


@pytest.mark.parametrize(
    "text,streamed",
    [(text, True) for text in STREAMED.values()] + [(text, False) for text in WHOLE.values()],
    ids=[*STREAMED, *WHOLE],
)
def test_windowed_reader_decodes_as_the_whole_text(text, streamed, tmp_path):
    """Any layout, and any malformed file, gives what a decode of the whole
    text gave, at every window size: the same members or the same refusal,
    and for bad JSON the same char offset."""
    path = tmp_path / "bundle.json"
    path.write_text(text, encoding="utf-8")
    assert windowed_load(path, streamed) == whole_text_outcome(path)


def test_syntax_error_past_the_first_window(pool105, tmp_path):
    """A bad delimiter 5 MiB into the N = 105 pool is named at its offset in
    the whole text, not in the reader's window."""
    text = pool105.read_text()
    at = text.index(", ", 5 * 2**20)
    path = tmp_path / "bad.json"
    path.write_text(text[:at] + ";" + text[at + 1 :])
    refusal = outcome(lambda: load_family_json(path))
    assert refusal == whole_text_outcome(path)
    assert "Expecting ',' delimiter" in refusal[1] and f"(char {at})" in refusal[1]


@PROPERTY
@given(kind=st.sampled_from(["set", "ccc", "qcss"]), data=st.data())
def test_any_layout_loads_as_json_loads(kind, data, scratch_dir):
    """Random whitespace, key order, indent and window size give the result
    of family_from_json_obj(json.loads(text))."""
    members = data.draw(family(kind))
    n = members[0].n
    obj = family_to_json_obj(members, n, data.draw(admissible_exponent(n)), kind)

    def shuffled(record):
        return {key: record[key] for key in data.draw(st.permutations(list(record)))}

    obj = shuffled(obj | {"members": [shuffled(record) for record in obj["members"]]})
    space = st.text(" \t\n\r", max_size=3)
    separators = (data.draw(space) + "," + data.draw(space), data.draw(space) + ":" + data.draw(space))
    indent = data.draw(st.sampled_from([None, 0, 2, "\t"]))
    text = data.draw(space) + json.dumps(obj, indent=indent, separators=separators) + data.draw(space)
    (scratch_dir / "layout.json").write_text(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_WINDOW", data.draw(st.sampled_from([1, 2, 3, 5, 7, 64, cli._WINDOW])))
        loaded = outcome(lambda: load_family_json(scratch_dir / "layout.json"))
    assert loaded == outcome(lambda: family_from_json_obj(json.loads(text)))


def one_array_refusal(cells):
    """The reference: the refusal that one np.array of every member's cells
    gives, as the whole-bundle decode did before members were decoded one
    at a time; None when the cells pass."""
    try:
        phases = np.array(cells)
    except ValueError:
        return RAGGED
    if phases.size and phases.dtype.kind not in "iu":
        return RAGGED
    if phases.ndim == 3:
        where = zip(*np.nonzero((phases == 0) | (phases == 1)))
        if any(type(cells[u][r][c]) is bool for u, r, c in where):
            return BOOLEAN
    return None


CELL_VALUES = [True, False, 1.5, -1, 0, 8, 2**32, 2**63, 2**64, "3", None]
MEMBER_PHASES = [[], 5, [[True] * 9] * 9, [[2**63] * 9] * 9, [[0] * 3] * 3, [[1.0] * 9] * 9]


@st.composite
def edited_bundle(draw):
    """A set or ccc bundle at N = 9 with one to three edits of its members' phases."""
    perm = pi_perm(factorize(9), 5)
    kind = draw(st.sampled_from(["set", "ccc"]))
    members = [build_set(2, 3, perm)] if kind == "set" else list(build_ccc(1, perm))
    obj = json.loads(json.dumps(family_to_json_obj(members, 9, 5, kind)))
    for _ in range(draw(st.integers(1, 3))):
        record = obj["members"][draw(st.integers(0, len(members) - 1))]
        phases = record["phases"]
        edit = draw(st.sampled_from(["cell", "row", "column", "member"]))
        if edit == "member":
            record["phases"] = json.loads(json.dumps(draw(st.sampled_from(MEMBER_PHASES))))  # a fresh copy
        elif not isinstance(phases, list) or not phases or not isinstance(phases[0], list) or not phases[0]:
            continue
        elif edit == "cell":
            phases[draw(st.integers(0, len(phases) - 1))][0] = draw(st.sampled_from(CELL_VALUES))
        elif edit == "row":
            phases.pop()
        else:
            phases[draw(st.integers(0, len(phases) - 1))].pop()
    return obj


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bundles")


def member_refusal(outcome) -> bool:
    """Whether a decode outcome is one of the refusals of a bad member's cells."""
    return outcome in (RAGGED, BOOLEAN, OUT_OF_RANGE) or (
        isinstance(outcome, tuple) and outcome[0] is QcssError and outcome[1].startswith("phases must be 9x9, got ")
    )


@settings(max_examples=150, deadline=None)
@given(obj=edited_bundle())
def test_member_decode_refuses_as_one_array(obj, scratch_dir):
    """Both decoders give an edited bundle the same outcome, and refuse it
    for a bad member whenever the one-array reference refuses it, whatever
    the edits and their members."""
    outcomes = both_decoders(json.dumps(obj), scratch_dir)
    assert outcomes[0] == outcomes[1]
    if one_array_refusal([record["phases"] for record in obj["members"]]) is not None:
        assert member_refusal(outcomes[0])


@PROPERTY
@given(kind=st.sampled_from(["set", "ccc", "qcss"]), values=st.sampled_from(["construction", "zeros"]), data=st.data())
def test_built_and_loaded_phases_are_compact(kind, values, data, scratch_dir):
    """Every built or loaded set or family stores its phases in
    np.min_scalar_type(N - 1), whatever its values: uint8 up to N = 255,
    uint16 from N = 257 on."""
    n = data.draw(st.one_of(moduli, st.sampled_from([253, 255, 257, 259])) if kind == "set" else moduli, label="n")
    f = factorize(n)
    e = data.draw(admissible_exponent(n), label="e")
    perm = pi_perm(f, e)
    k = data.draw(st.integers(1, f.least_prime - 1), label="k")
    built = {
        "set": lambda: [build_set(k, data.draw(st.integers(0, n - 1), label="m"), perm)],
        "ccc": lambda: list(build_ccc(k, perm)),
        "qcss": lambda: list(build_qcss(f, perm)),
    }[kind]()
    if values == "zeros":
        built = [PhaseMatrix(n, mat.k, mat.m, np.zeros((n, n), dtype=np.int64)) for mat in built]
    arrays = [built[0].phases]
    if kind == "set":
        arrays.append(matrix_from_csv_text(matrix_to_csv_text(built[0], e))[0].phases)
    text = json.dumps(family_to_json_obj(built, n, e, kind))
    (scratch_dir / "compact.json").write_text(text)
    for members, _, _ in (load_family_json(scratch_dir / "compact.json"), family_from_json_obj(json.loads(text))):
        arrays += [members[0].phases, members[0].phases.base]
    assert {a.dtype for a in arrays if a is not None} == {np.min_scalar_type(n - 1)}


def test_first_uint16_modulus_round_trips(tmp_path):
    """N = 257: a set is uint16, equals the int64 closed form, and comes
    back from CSV and JSON as the same uint16 array."""
    perm = pi_perm(factorize(257), 3)
    s = np.arange(257, dtype=np.int64)[:, None]
    want = (200 * s * perm.table + 131 * np.arange(257, dtype=np.int64)) % 257
    mat = build_set(200, 131, perm)
    (tmp_path / "set.json").write_text(json.dumps(family_to_json_obj([mat], 257, 3, "set")))
    loaded = [
        matrix_from_csv_text(matrix_to_csv_text(mat, 3))[0],
        family_from_json_obj(json.loads((tmp_path / "set.json").read_text()))[0][0],
        load_family_json(tmp_path / "set.json")[0][0],
    ]
    for back in [mat, *loaded]:
        assert back.phases.dtype == np.uint16 and np.array_equal(back.phases, want)
        assert (back.n, back.k, back.m) == (257, 200, 131)
