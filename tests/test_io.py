"""``io.read_numeric_csv``: layouts it accepts and the exact error it gives."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcast.errors import DomainError
from tailcast.io import read_numeric_csv


@pytest.fixture
def csv_file(tmp_path):
    def write(text: str) -> str:
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        return str(path)

    return write


def read_exact(path, columns=1):
    arr = read_numeric_csv(path, columns)
    assert arr.dtype == np.float64
    return arr


@pytest.mark.parametrize("text,expected", [
    ("value\n1.5\n2\n-3e2\n", [1.5, 2.0, -300.0]),  # a header line
    ("1.5\n2\n-3e2\n", [1.5, 2.0, -300.0]),  # no header
    ("x\r\n0.1\r\n0.2\r\n", [0.1, 0.2]),  # CRLF line endings
    ("\n1\n\n  \n2\n , \n", [1.0, 2.0]),  # blank and whitespace-only rows
    ('"1.25"\n" 2 "\n', [1.25, 2.0]),  # quoted cells
    ("1,\n2, \n", [1.0, 2.0]),  # a trailing empty cell
    ("  7 \n\t8\t\n", [7.0, 8.0]),  # cells are stripped
    (",1\n2\n", [1.0, 2.0]),  # the header test reads the first filled cell
    ("nan_header\n1\n", [1.0]),
    (",value\n1\n", [1.0]),  # a header after a leading empty cell
])
def test_one_column(csv_file, text, expected):
    got = read_exact(csv_file(text))
    assert got.shape == (len(expected),)
    assert got.tolist() == expected


def test_three_columns(csv_file):
    path = csv_file("y,mu,xi\n1,0.5,2\n\n-1, 0.25 ,3e-3\r\n")
    got = read_exact(path, columns=3)
    assert got.shape == (2, 3)
    assert got.tolist() == [[1.0, 0.5, 2.0], [-1.0, 0.25, 3e-3]]
    # a blank cell does not count as a column
    assert read_exact(csv_file("1,,2,3\n"), columns=3).tolist() == [[1.0, 2.0, 3.0]]


def test_values_parse_as_python_floats(csv_file):
    cells = ["0.1", "1e-320", "-0.0", "1_000.5", "4.9406564584124654e-324",
             "1.7976931348623157e308", "+.5", "1E2"]
    got = read_exact(csv_file("\n".join(cells) + "\n"))
    assert got.tobytes() == np.array([float(c) for c in cells]).tobytes()


@pytest.mark.parametrize("text,columns,message", [
    ("", 1, "contains no data"),
    ("\n \n,\n", 1, "contains no data"),
    ("value\n", 1, "contains only a header"),
    ("value\n\n  \n", 1, "contains only a header"),
    # row numbers count non-blank rows only, the header as row 1
    ("v\n1\n\n2,3\n", 1, "expected 1 column(s) but found 2 at row 3"),
    ("1\n2\n3\n", 3, "expected 3 column(s) but found 1 at row 1"),
    ("1\n\n\nabc\n", 1, "non-numeric value 'abc' at row 2, column 1"),
    ("y,mu,xi\n1,2,3\n1, x ,3\n", 3, "non-numeric value 'x' at row 3, column 2"),
    ("1\n1.5.2\n", 1, "non-numeric value '1.5.2' at row 2, column 1"),
    ("1\nnan\n", 1, "non-finite value at row 2"),
    ("h\n1\n-inf\n", 1, "non-finite value at row 3"),
    ("1,2,3\n4,inf,6\n", 3, "non-finite value at row 2"),
    ("nan\n", 1, "non-finite value at row 1"),  # nan is a number, not a header
])
def test_errors(csv_file, text, columns, message):
    path = csv_file(text)
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        read_numeric_csv(path, columns)


@pytest.mark.parametrize("text,message", [
    ("1\nx\n1,2\n", "non-numeric value 'x' at row 2, column 1"),
    ("1\n1,2\nx\n", "expected 1 column(s) but found 2 at row 2"),
    ("1\nnan\nx\n", "non-finite value at row 2"),
    ("1\nnan\n1,2\n", "non-finite value at row 2"),
    ("1\nx\nnan\n", "non-numeric value 'x' at row 2, column 1"),
])
def test_first_faulty_row_decides(csv_file, text, message):
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        read_numeric_csv(csv_file(text))


def test_within_a_row_count_then_text_then_finiteness(csv_file):
    with pytest.raises(DomainError, match=re.escape("found 3 at row 2") + "$"):
        read_numeric_csv(csv_file("1,2\nx,nan,1\n"), 2)
    with pytest.raises(DomainError, match=re.escape("value 'x' at row 2, column 2") + "$"):
        read_numeric_csv(csv_file("1,2\nnan,x\n"), 2)


def test_error_names_the_file(csv_file):
    path = csv_file("")
    with pytest.raises(DomainError, match=re.escape(repr(path))):
        read_numeric_csv(path)


# quote-free cells, rows and texts: numbers, blanks, whitespace, headers,
# non-numeric and non-finite cells, rows of any width and every line ending
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", " ", "\t", " 1.5 ", "value", "y", "x", "nan", "inf", "-inf",
                     "1e400", "1_000", "1.5.2", "+.5", "0x10"]),
)
ROWS = st.lists(CELLS, min_size=0, max_size=4).map(",".join)
TEXTS = st.lists(
    st.tuples(ROWS, st.sampled_from(["\n", "\r\n", "\r"])), min_size=0, max_size=8
).map(lambda rows: "".join(row + end for row, end in rows))


@settings(max_examples=400, deadline=None)
@given(text=TEXTS, trailing=st.sampled_from(["", "\n", "\r", ",", "\n\n"]),
       columns=st.integers(1, 3))
def test_split_and_csv_reader_agree(tmp_path_factory, text, trailing, columns):
    # a quote-free text is split with str.split; its twin, which ends in a
    # row holding one quoted empty cell (a blank row), goes through
    # csv.reader; both read as the same array or fail with the same message
    path = tmp_path_factory.mktemp("csv") / "in.csv"

    def read(body):
        path.write_bytes(body.encode())
        try:
            arr = read_numeric_csv(str(path), columns)
        except DomainError as exc:
            return str(exc)
        return arr.shape, arr.dtype, arr.tobytes()

    assert read(text + trailing) == read(text + trailing + '\n""\n')
