"""Differential test: the column-wise CSV ingest against a per-row oracle.

``read_csv_relation`` types every field in one int64 pass and maps whole
columns.  The oracle here is the row-at-a-time path it replaces, written
out in full: ``csv.reader``, per-value ``int()`` per column, then
``SchemaInferencer.infer`` and ``Relation.from_values``.  On any CSV text
both must give the same names, domains and ordinal tuples, or raise the
same error class.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.errors import EncodingError
from repro.io.csvio import read_csv_relation, read_csv_rows
from repro.relational.encoding import SchemaInferencer
from repro.relational.relation import Relation

#: Digit sets ``int()`` accepts: ASCII, Arabic-Indic, Devanagari, fullwidth.
DIGIT_SETS = ["0123456789", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９"]
INT64_MAX = (1 << 63) - 1


def oracle(path, has_header, inferencer):
    """The per-row ingest: tokenize, type each value, infer, map each row."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r]
    if not rows:
        raise EncodingError("no rows")
    if has_header:
        names, rows = rows[0], rows[1:]
        if not rows:
            raise EncodingError("header only")
    else:
        names = [f"A{i + 1}" for i in range(len(rows[0]))]
    if any(len(r) != len(names) for r in rows):
        raise EncodingError("ragged")
    columns = []
    for column in zip(*rows):
        try:
            columns.append([int(v) for v in column])
        except ValueError:
            columns.append(list(column))
    typed = list(zip(*columns))
    schema = inferencer.infer(typed, names)
    return Relation.from_values(schema, typed)


@st.composite
def integer_fields(draw, huge):
    """An integer's text in any spelling ``int()`` accepts."""
    bound = 10**25 if huge else INT64_MAX
    value = draw(st.integers(-bound, bound))
    digits = str(abs(value))
    if draw(st.booleans()) and len(digits) > 1:
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    table = draw(st.sampled_from(DIGIT_SETS))
    digits = "".join(table[int(c)] if c.isdigit() else c for c in digits)
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    pad = draw(st.sampled_from(["", " ", "  ", "\t"]))
    return pad + sign + digits + draw(st.sampled_from(["", " "]))


STRING_FIELDS = st.one_of(
    st.sampled_from(["sales", "eng", "ops", "x", "", " ", "1.5", "1e3",
                     "0x1f", "--3", "a,b", 'say "hi"', "two\nlines", "€"]),
    st.text(alphabet="abc ,\"\r\n12-", max_size=6),
)


def column_fields(kind, n):
    """``n`` field texts for one column of the given kind."""
    if kind == "int":
        return st.lists(integer_fields(False), min_size=n, max_size=n)
    if kind == "huge":
        return st.lists(integer_fields(True), min_size=n, max_size=n)
    if kind == "str":
        return st.lists(STRING_FIELDS, min_size=n, max_size=n)
    # mixed: integers with a string somewhere, so the column stays text
    return st.lists(
        st.one_of(integer_fields(False), STRING_FIELDS), min_size=n, max_size=n
    )


def render(field, quote_all):
    if quote_all or any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


@st.composite
def csv_texts(draw):
    """(text, has_header): one CSV file's contents, possibly malformed."""
    arity = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    kinds = draw(st.lists(
        st.sampled_from(["int", "int", "huge", "str", "mixed"]),
        min_size=arity, max_size=arity,
    ))
    columns = [draw(column_fields(kind, n)) for kind in kinds]
    rows = [list(r) for r in zip(*columns)]
    has_header = draw(st.booleans())
    if has_header:
        names = draw(st.lists(
            st.sampled_from(["a", "b", "c", "years", "A1", ""]),
            min_size=arity, max_size=arity,
        ))
        rows.insert(0, names)
    if draw(st.integers(0, 9)) == 0:  # ragged: one row gains or loses a field
        victim = rows[draw(st.integers(0, len(rows) - 1))]
        if len(victim) > 1 and draw(st.booleans()):
            victim.pop()
        else:
            victim.append("7")
    quote_all = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(render(f, quote_all) for f in r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, has_header


INFERENCERS = [
    SchemaInferencer(),
    SchemaInferencer(categorical_threshold=2, integer_padding=3),
]


def outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # any class: the two sides must raise the same one
        return None, exc


@given(csv_texts(), st.sampled_from(range(len(INFERENCERS))))
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
def test_columnar_ingest_matches_per_row_oracle(tmp_path, case, which):
    text, has_header = case
    inferencer = INFERENCERS[which]
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    want, want_error = outcome(lambda: oracle(str(path), has_header, inferencer))
    got, got_error = outcome(
        lambda: read_csv_relation(
            str(path), has_header=has_header, inferencer=inferencer
        )
    )
    if want_error is not None:
        assert type(got_error) is type(want_error), (want_error, got_error)
        return
    assert got_error is None, got_error
    assert got.schema.names == want.schema.names
    assert [repr(a.domain) for a in got.schema.attributes] == [
        repr(a.domain) for a in want.schema.attributes
    ]
    assert got.schema.domain_sizes == want.schema.domain_sizes
    assert list(got) == list(want)
    assert got.decoded_rows() == want.decoded_rows()


class TestFixedCases:
    """Corner cases named once, so they never depend on a draw."""

    @pytest.mark.parametrize(
        "text, domain",
        [
            ("x\n 12 \n+3\n1_000\n", "IntegerRangeDomain(3, 1000)"),
            ("x\n٣\n12\n", "IntegerRangeDomain(3, 12)"),
            ('x\n"5"\n-7\n', "IntegerRangeDomain(-7, 5)"),
            ("x\r\n1\r\n\r\n2\r\n", "IntegerRangeDomain(1, 2)"),
            (f"x\n{INT64_MAX}\n{-INT64_MAX - 1}\n",
             f"IntegerRangeDomain({-INT64_MAX - 1}, {INT64_MAX})"),
            (f"x\n{10**30}\n{10**30 + 4}\n",
             f"IntegerRangeDomain({10**30}, {10**30 + 4})"),
        ],
    )
    def test_integer_spellings(self, tmp_path, text, domain):
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode("utf-8"))
        rel = read_csv_relation(str(path))
        assert repr(rel.schema.attributes[0].domain) == domain
        want = oracle(str(path), True, SchemaInferencer())
        assert list(rel) == list(want)

    def test_domain_wider_than_int64_keeps_python_ints(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(f"x,y\n{-(1 << 63)},1\n{(1 << 63) - 1},2\n")
        rel = read_csv_relation(str(path))
        assert not rel.schema.ordinals_fit_int64
        assert list(rel) == [(0, 0), ((1 << 64) - 1, 1)]

    def test_read_csv_rows_unchanged(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("d,n\nsales, 12\neng,7\n\n")
        assert read_csv_rows(str(path)) == (
            ["d", "n"], [("sales", 12), ("eng", 7)]
        )


def benchmark_shaped_csv(path, n, seed):
    """A served benchmark table: A1 in [0, 8191], A2-A6 in [0, 255]."""
    rng = np.random.default_rng(seed)
    maxima = (8191, 255, 255, 255, 255, 255)
    rows = np.stack([rng.integers(0, hi + 1, n) for hi in maxima], axis=1)
    rows[0] = 0
    rows[1] = maxima
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("A1,A2,A3,A4,A5,A6\n")
        np.savetxt(fh, rows, fmt="%d", delimiter=",")


def stored_table(relation):
    """(schema repr, directory, payloads) of a served table's storage."""
    database = Database()
    table = database.create_table_from_relation("t", relation, compressed=True)
    storage = table.storage
    return (
        [repr(a.domain) for a in table.schema.attributes],
        storage.directory_entries_checked(),
        [storage.read_payload(i) for i in range(storage.num_blocks)],
    )


@pytest.mark.parametrize("n", [3_000, 40_000])
def test_served_table_blocks_byte_identical(tmp_path, n):
    path = str(tmp_path / "bench.csv")
    benchmark_shaped_csv(path, n, seed=n)
    names, rows = read_csv_rows(path)
    per_row = SchemaInferencer().infer(rows, names)
    old = stored_table(Relation.from_values(per_row, rows))
    new = stored_table(read_csv_relation(path))
    assert new[0] == old[0]
    assert new[1] == old[1]
    assert len(new[2]) > 1 and new[2] == old[2]
