"""Property tests of the CSV and JSON codecs in qcss.cli.

The writers must produce the same bytes as the plain per-cell formula,
both round trips must be lossless, and the CSV reader must keep accepting
the loose layouts it always accepted and refusing malformed cells.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcss import QcssError
from qcss.cli import family_from_json_obj, family_to_json_obj, matrix_from_csv_text, matrix_to_csv_text
from qcss.codebook import PhaseMatrix

PROPERTY = settings(max_examples=40, deadline=None)

moduli = st.integers(1, 12).map(lambda h: 2 * h + 1)  # odd N in [3, 25]
exponents = st.integers(1, 10**6)


@st.composite
def phase_matrix(draw, n=None):
    n = draw(moduli) if n is None else n
    k = draw(st.integers(1, n - 1))
    m = draw(st.integers(0, n - 1))
    return PhaseMatrix(n, k, m, draw(arrays(np.int64, (n, n), elements=st.integers(0, n - 1))))


@st.composite
def family(draw):
    n = draw(moduli)
    return draw(st.lists(phase_matrix(n), min_size=1, max_size=3))


def per_cell_csv(mat: PhaseMatrix, exponent: int) -> str:
    """The CSV writer's output spelled out with str() on every cell."""
    lines = [f"# N={mat.n}, k={mat.k}, m={mat.m}, e={exponent}"]
    lines += [",".join(str(x) for x in row) for row in mat.phases.tolist()]
    return "\n".join(lines) + "\n"


@PROPERTY
@given(phase_matrix(), exponents)
def test_csv_text_is_str_of_every_cell(mat, exponent):
    assert matrix_to_csv_text(mat, exponent) == per_cell_csv(mat, exponent)


@PROPERTY
@given(phase_matrix(), exponents)
def test_csv_round_trip(mat, exponent):
    back, e = matrix_from_csv_text(matrix_to_csv_text(mat, exponent))
    assert back == mat and e == exponent


@PROPERTY
@given(family(), exponents, st.sampled_from(["set", "ccc", "qcss"]))
def test_json_round_trip(members, exponent, kind):
    obj = family_to_json_obj(members, members[0].n, exponent, kind)
    back, e, back_kind = family_from_json_obj(json.loads(json.dumps(obj)))
    assert back == members and (e, back_kind) == (exponent, kind)


@PROPERTY
@given(phase_matrix(), exponents, st.data())
def test_reader_accepts_loose_layout(mat, exponent, data):
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
