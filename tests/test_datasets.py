import io

import numpy as np
import pytest

import hubbertfit as hf
from hubbertfit import datasets
from hubbertfit.errors import DataFormatError


def test_bundled_series_anchors():
    norway = datasets.load_norway()
    t, v = norway.times[0], norway.values[0]
    assert t[0] == 1980.0 and t[-1] == 2014.0 and t.size == 35
    lookup = dict(zip(t, v))
    assert lookup[2001.0] == 3226.0  # the observed peak year
    assert lookup[1999.0] == 3019.0
    assert lookup[2014.0] == 1568.0
    # 2014 rose about 2.5% over 2013
    assert lookup[2014.0] / lookup[2013.0] == pytest.approx(1.025, abs=0.005)
    assert np.argmax(v) == np.searchsorted(t, 2001.0)

    kaz = datasets.load_kazakhstan()
    tk, vk = kaz.times[0], kaz.values[0]
    assert tk[0] == 1992.0 and tk[-1] == 2014.0 and tk.size == 23
    assert vk[-1] == 1632.0
    assert np.argmax(vk) == vk.size - 1  # peak not reached in-window


def test_norway_truncation():
    pre = datasets.load_norway(last_year=1999)
    assert pre.times[0][-1] == 1999.0 and pre.times[0].size == 20
    with pytest.raises(DataFormatError):
        datasets.load_norway(last_year=1980)


def test_round_trip(tmp_path):
    panel = hf.PanelData(
        times=[np.array([0.0, 1.5, 2.0]), np.array([0.0, 0.25])],
        values=[np.array([1.0, 2.2, 0.7]), np.array([3.0, 1.0 / 3.0])],
    )
    path = tmp_path / "panel.csv"
    datasets.write_panel_csv(path, panel)
    back = datasets.load_panel_csv(path)
    assert back.d == 2
    for a, b in zip(panel.times + panel.values, back.times + back.values):
        np.testing.assert_array_equal(a, b)


def parse(text):
    return datasets.load_panel_csv(io.StringIO(text))


def test_parse_errors_cite_line_numbers():
    with pytest.raises(DataFormatError, match="line 3"):
        parse("path_id,time,value\n0,0,1.0\n0,1,-2.0\n")
    with pytest.raises(DataFormatError, match="line 4"):
        parse("path_id,time,value\n0,0,1.0\n0,1,2.0\n0,1,3.0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse("path_id,time,value\n0,zero,1.0\n")
    with pytest.raises(DataFormatError, match="line 1"):
        parse("time,value\n0,1.0\n")
    with pytest.raises(DataFormatError, match="empty"):
        parse("")
    with pytest.raises(DataFormatError):
        parse("path_id,time,value\n")


@pytest.mark.parametrize("row", ["0,inf,4", "0,-inf,4", "0,nan,4", "0,3,inf", "0,3,nan"])
def test_parse_rejects_non_finite_fields(row):
    with pytest.raises(DataFormatError, match="line 4: time and value must be finite"):
        parse(f"path_id,time,value\n0,0,1.0\n0,1,2.0\n{row}\n")


@pytest.mark.parametrize("body, message", [
    (b"0,0,1\n0,1,2\n0,2,\xff3\n", "line 4: not UTF-8"),
    (b"0,0,1\n0,1," + b"1" * 200_000 + b"\n", "line 3: field larger than field limit"),
], ids=["non-utf8", "oversized-field"])
def test_undecodable_file_cites_path_and_line(tmp_path, body, message):
    path = tmp_path / "panel.csv"
    path.write_bytes(b"path_id,time,value\n" + body)
    with pytest.raises(DataFormatError, match=f"panel.csv: {message}"):
        datasets.load_panel_csv(path)


def test_missing_file():
    with pytest.raises(DataFormatError, match="no_such"):
        datasets.load_panel_csv("/tmp/no_such_panel.csv")


def test_multi_path_parse():
    panel = parse(
        "path_id,time,value\n"
        "a,0,1.0\na,1,2.0\n"
        "b,0,5.0\nb,2,4.0\nb,3,3.0\n"
    )
    assert panel.d == 2
    assert panel.n_obs == 5
