"""Property-based tests: generated inputs instead of hand-picked fixtures.

Each test is derandomized with a fixed example budget, so a run is
reproducible and its cost is bounded.
"""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tmclust.errors import DataFormatError  # noqa: E402
from tmclust.io import _load_csv_long, _parse_csv_long, _scan_csv_long  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


# --- the long-CSV reader -------------------------------------------------------------

# tokens the row scan accepts, rejects, or reads differently from np.loadtxt
TOKENS = st.sampled_from(
    ["1", "2", "0", "-1", "+1", " 1", "1 ", "01", "1.0", "1.", "1e0", "1_0", "١", "1\x1c",
     "1ᅰ", "\t2", "", " ", "nan", "inf", "-0", "0.5", "1e-320", "1e400", '"1"', "#", "x"]
)

# characters around a token: int() and float() strip only some of them
SPACING = st.text(alphabet=[" ", "\t", "\x0b", "\x1c", "\x1f", "\xa0", "\u1170", "_", "0"],
                  max_size=2)


@st.composite
def csv_long_files(draw):
    """A valid csv-long file of a small batch, then a few mutations."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    n_obs = draw(st.integers(1, 3))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=n_obs * int(np.prod(dims)), max_size=n_obs * int(np.prod(dims)),
        )
    )
    rows = [
        [str(i + 1)] + [str(j + 1) for j in idx] + [repr(values[c])]
        for c, (i, idx) in enumerate(
            (i, idx) for i in range(n_obs) for idx in np.ndindex(*dims)
        )
    ]
    rows = draw(st.permutations(rows))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["token"] * 4 + ["drop", "duplicate", "blank", "raw"]))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "token" and lines:
            fields = lines[at].split(",")
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(st.one_of(TOKENS, st.builds(
                "{}{}{}".format, SPACING, st.just(fields[j]), SPACING)))
            lines[at] = ",".join(fields)
        elif kind == "drop" and lines:
            del lines[at]
        elif kind == "duplicate" and lines:
            lines.insert(at, lines[at])
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", "\r"])))
        elif kind == "raw":
            lines.insert(at, draw(st.text(alphabet="0123456789,.e- \t\"#", max_size=12)))
    header = ",".join(["obs_id"] + [f"i{k + 1}" for k in range(len(dims))] + ["value"])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return dims, n_obs, end.join([header] + lines) + draw(st.sampled_from(["", end, end * 2]))


def outcome(load, path, dims, n_obs):
    try:
        return load(path, dims, n_obs)
    except DataFormatError as exc:
        return str(exc)


@PROPERTY
@given(csv_long_files())
def test_csv_long_fast_path_agrees_with_the_row_scan(case):
    """The chunked parse gives the row scan's array bit for bit, or the row
    scan's error; whatever it accepts, the row scan accepts too."""
    dims, n_obs, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arrays.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        want = outcome(_scan_csv_long, path, dims, n_obs)
        got = outcome(_load_csv_long, path, dims, n_obs)
        fast = _parse_csv_long(path, dims, n_obs)
    if isinstance(want, str):
        assert got == want
        assert fast is None
    else:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert fast is None or np.array_equal(fast.view(np.int64), want.view(np.int64))
