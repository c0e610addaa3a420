"""The column encoder against a per-cell reference.

``cli.encode`` formats a whole column at once. The reference here formats
one cell at a time by the output rules of ``docs/formats.md``: an int (or
bool) cell as its integer, a float cell at 12 significant digits with -0 as
0 and inf, -inf and nan spelled out; in JSON a float is its CSV cell parsed
back, null where that is not finite, and ints and bools stay as they are.
Random columns of ints, bools and floats, as lists or numpy arrays, must
encode to the same bytes both ways, and the JSON must be strict.
"""

import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasispec import cli


def ref_cell(x) -> str:
    if not isinstance(x, float) and isinstance(x, numbers.Integral):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        x = 0.0  # normalize -0
    return f"{x:.12g}"


def ref_json(x):
    if isinstance(x, int):
        return x
    v = float(ref_cell(x))
    return v if math.isfinite(v) else None


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e300, -1e300, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
               9.99999999999995, -9.99999999999995, 0.999999999999995, 99999999999.95,
               9.999999999995e299, 1.0, -1.0, 0.1]
KINDS = {
    "int": st.integers(-2**62, 2**62),
    "bool": st.booleans(),
    "float": st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       st.sampled_from(EDGE_FLOATS)),
}


@st.composite
def tables(draw):
    """(python columns, columns as given to ``encode``) of one length."""
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    cols = [draw(st.lists(KINDS[k], min_size=rows, max_size=rows)) for k in kinds]
    given = [np.array(c, dtype={"int": np.int64, "bool": bool, "float": float}[k])
             if draw(st.booleans()) else c for c, k in zip(cols, kinds)]
    return cols, given


def _strict(text):
    raise ValueError(f"non-strict JSON constant {text}")


@settings(max_examples=300)
@given(tables(), st.booleans())
def test_columns_encode_as_their_cells(table, records):
    cols, given_cols = table
    header = tuple(f"c{i}" for i in range(len(cols)))
    rows = list(zip(*cols))

    want = ",".join(header) + "\n" + "".join(",".join(map(ref_cell, r)) + "\n" for r in rows)
    assert cli.encode(header, given_cols, None, "csv") == want

    if records:
        layout = cli._records("rows", header, tail=None)
        ref = {"rows": [dict(zip(header, map(ref_json, r))) for r in rows], "tail": None}
    else:
        layout = cli._columns(*header, head=1)
        ref = {"head": 1, **{h: [ref_json(x) for x in c] for h, c in zip(header, cols)}}
    text = cli.encode(header, given_cols, layout, "json")
    assert text == json.dumps(ref, separators=(",", ":"), allow_nan=False) + "\n"
    json.loads(text, parse_constant=_strict)


@given(tables(), st.integers(1, 5))
def test_csv_in_row_chunks(table, rows):
    # CSV goes out a bounded number of rows at a time, with the same bytes.
    _, given_cols = table
    header = tuple(f"c{i}" for i in range(len(given_cols)))
    whole = cli.encode(header, given_cols, None, "csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CSV_ROWS", rows)
        pieces = list(cli._pieces(header, given_cols, None, "csv"))
    assert "".join(pieces) == whole
    assert len(pieces) == 1 + -(-(len(whole.splitlines()) - 1) // rows)


def test_chunked_output_file_is_unchanged(tmp_path, monkeypatch):
    argv = ["resistance", "--model", "fibonacci", "--lambda", "1", "--energy", "0",
            "--lengths", "1:50"]
    outs = []
    for rows in (cli._CSV_ROWS, 7):
        monkeypatch.setattr(cli, "_CSV_ROWS", rows)
        out = tmp_path / f"{rows}.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] and outs[0].count(b"\n") == 51
