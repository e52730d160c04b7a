"""The shared CSV format: bit-exact round trips, the pinned text, and readers
that either return or raise ScenarioError naming the line."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mfg_moments import (
    DensityGrid, ScenarioError, hjb_from_csv, moments_from_csv, series_from_csv, sim_from_csv,
)
from mfg_moments.table import read_table, write_table

READERS = {
    "hjb": hjb_from_csv,
    "moments": moments_from_csv,
    "density": DensityGrid.from_csv,
    "simulation": sim_from_csv,
    "observation": series_from_csv,
}


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert a.shape == b.shape
    assert np.array_equal(np.isnan(a), np.isnan(b))
    keep = ~np.isnan(a)
    assert np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


class TestFormat:
    def test_text_is_pinned(self):
        data = [[0.5, np.inf], [np.nan, -0.0], [5e-324, 3.0], [-np.inf, 0.1]]
        text = write_table(["x", "m"], data, meta={"t": 2.0, "mass": 0.1, "focal": 1})
        assert text == ("# t=2 mass=0.10000000000000001 focal=1\n"
                        "x,m\n"
                        "0.5,inf\n"
                        "nan,-0\n"
                        "4.9406564584124654e-324,3\n"
                        "-inf,0.10000000000000001\n")

    @settings(max_examples=60, deadline=None)
    @given(data=arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 5)),
                       elements=st.floats()),
           meta=st.lists(st.floats(), max_size=3))
    @example(data=np.array([[-0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 2.0**53]]),
             meta=[-0.0, np.nan])
    def test_round_trip_is_bit_exact(self, data, meta):
        header = [f"c{j}" for j in range(data.shape[1])]
        keys = tuple(f"k{i}" for i in range(len(meta)))
        text = write_table(header, data, dict(zip(keys, meta)) if keys else None)
        got_meta, got_header, got = read_table(text, "test", "c0..", lambda h: True, meta_keys=keys)
        assert got_header == header
        _same_bits(got, data)
        _same_bits([got_meta[k] for k in keys], meta)


VALID = {
    "hjb": "t,u,udot,A,v_1,B_1,C\n0,1,0,0,0,0,0\n0.5,1,0,0,0,0,0\n1,1,0,0,0,0,0\n",
    "moments": "# K=1 residual_E=0 residual_V=nan focal=0\nt,E_1,V\n0,0,1\n0.5,0.5,1\n1,1,1\n",
    "density": "# t=1 mass=1 mean=0 variance=1\nx,m\n-1,0.25\n0,0.5\n1,0.25\n",
}


def _cases():
    """(reader, text, the error after "<reader> CSV ")."""
    hjb, mom, den = VALID["hjb"], VALID["moments"], VALID["density"]
    nan = "holds a value that is not a number"
    yield "hjb", "", "is empty"
    yield "hjb", hjb.replace("udot,A,", ""), "line 1: header must be"
    yield "hjb", hjb.replace("\n0.5,1,0,0,0,0,0\n", "\n0.5,1,0,0,0,0\n"), "line 3 has 6 fields"
    yield "hjb", hjb.replace("\n0.5,1,0", "\n0.5,1,x"), f"line 3 {nan}"
    yield "hjb", hjb.rsplit("1,1", 1)[0], "has 2 data rows; it needs 3"
    yield "moments", "\n \n", "is empty"
    yield "moments", mom.replace("E_1", "E"), "line 2: header must be"
    yield "moments", mom.replace("\n0.5,0.5,1\n", "\n0.5,0.5\n"), "line 4 has 2 fields"
    yield "moments", mom.replace("\n1,1,1", "\n1,1,one"), f"line 5 {nan}"
    yield "moments", mom.replace("residual_E=0 ", ""), "line 1 has no residual_E= entry"
    yield "moments", mom.split("\n", 1)[1], "line 1 has no K= entry"
    yield "moments", mom.replace("K=1", "K=x"), f"line 1 {nan}"
    yield "moments", mom.rsplit("1,1,1", 1)[0], "has 2 data rows; it needs 3"
    yield "density", "", "is empty"
    yield "density", den.replace("x,m", "x,y"), "line 2: header must be"
    yield "density", den.replace("\n0,0.5\n", "\n0,0.5,1\n"), "line 4 has 3 fields"
    yield "density", den.replace("\n0,0.5\n", "\n0,\n"), f"line 4 {nan}"
    yield "density", den.replace(" mass=1", ""), "line 1 has no mass= entry"
    yield "density", "\n".join(den.splitlines()[:3]), "has 1 data rows; it needs 2"
    grid = "t column must be increasing and uniformly spaced"
    for name, table in (("hjb", hjb), ("moments", mom)):
        # times repeated, decreasing, non-uniform
        yield name, table.replace("\n0.5,", "\n0,"), grid
        yield name, table.replace("\n0,", "\nX,").replace("\n1,", "\n0,").replace("\nX,", "\n1,"), grid
        yield name, table.replace("\n0.5,", "\n0.25,"), grid


class TestMalformedTables:
    @pytest.mark.parametrize("name", sorted(VALID))
    def test_valid_table_reads(self, name):
        READERS[name](VALID[name])

    @pytest.mark.parametrize("name,text,cause", list(_cases()),
                             ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(_cases())])
    def test_malformed_table_names_the_line(self, name, text, cause):
        with pytest.raises(ScenarioError, match=f"^{name} CSV {cause}"):
            READERS[name](text)


HEADERS = ["t,u,udot,A,v_1,B_1,C", "t,E_1,V", "x,m", "t,E_hat_1,se_E_1,V_hat,se_V,n_jumps", "t,E,V",
           "t,u,udot,A,v_1,v_2,B_1,B_2,C", "t,E_1,E_2,V"]
META_KEYS = ["K", "residual_E", "residual_V", "focal", "t", "mass", "mean", "variance"]
NUMBER = st.one_of(st.floats().map(repr), st.integers(-3, 3).map(str))
CELL = st.one_of(NUMBER, st.sampled_from(["", "x", " 1 ", "1e999", "-nan", "0x10", "#"]),
                 st.text(max_size=4))


@st.composite
def _tables(draw):
    header = draw(st.one_of(st.sampled_from(HEADERS), st.text(max_size=12)))
    width = header.count(",") + 1
    meta = draw(st.lists(st.tuples(st.sampled_from(META_KEYS), CELL), max_size=5))
    rows = draw(st.lists(st.one_of(st.lists(NUMBER, min_size=width, max_size=width),
                                   st.lists(CELL, max_size=width + 1)), max_size=10))
    if draw(st.booleans()):
        # Row indices in the first column make a uniform grid, which reaches the interpolants.
        rows = [[str(i), *r[1:]] for i, r in enumerate(rows)]
    lines = ["# " + " ".join(f"{k}={v}" for k, v in meta), header, *map(",".join, rows)]
    return "\n".join(draw(st.permutations(lines)) if draw(st.booleans()) else lines)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_tables(), st.text()))
@example(text=VALID["hjb"].replace("\n0,1", "\n0.5,-1").replace("\n1,1", "\n0.5,1"))  # t all equal
@example(text=VALID["hjb"].replace("\n0.5,1", "\n0.5,-1"))  # u changes sign twice within 3 nodes
def test_every_reader_returns_or_raises_scenario_error(text):
    for read in READERS.values():
        try:
            read(text)
        except ScenarioError:
            pass
