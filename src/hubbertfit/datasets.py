"""Bundled crude-oil production snapshots and the panel CSV format.

The CSV layout is `path_id,time,value` with one row per observation.
Rows for a path must appear with strictly increasing times, times and
values must be finite, values positive, and all paths must share the
same first time.

The two bundled series are fixed snapshots of annual crude oil
production (including lease condensate, thousand barrels per day) kept
frozen for reproducible tests; live statistics will have been revised
since.  The accompanying URR figures (reserves plus cumulative
production, in the same value-times-years unit as the data) are the ones
under which the documented alpha bounds hold for these exact numbers.
"""

from __future__ import annotations

import csv
import io
import math
from importlib import resources

import numpy as np

from .errors import DataFormatError
from .likelihood import PanelData

# Calibrated so the bounding step reproduces alpha* = 0.8724 (Norway,
# full 1980-2014 window) and 0.9603 (Kazakhstan) on the snapshots.
NORWAY_URR = 83347.40
KAZAKHSTAN_URR = 101059.58


def _parse_row(row: list, line_no: int) -> tuple[str, float, float]:
    if len(row) != 3:
        raise DataFormatError(f"line {line_no}: expected 3 columns, got {len(row)}")
    path_id = row[0].strip()
    try:
        t = float(row[1])
        v = float(row[2])
    except ValueError as exc:
        raise DataFormatError(f"line {line_no}: non-numeric field ({exc})") from None
    if not (math.isfinite(t) and math.isfinite(v)):
        raise DataFormatError(
            f"line {line_no}: time and value must be finite, got {row[1]!r}, {row[2]!r}"
        )
    if not v > 0.0:
        raise DataFormatError(f"line {line_no}: value must be positive, got {row[2]}")
    return path_id, t, v


def load_panel_csv(source) -> PanelData:
    """Read a `path_id,time,value` CSV into a panel.

    source is a file path (read as UTF-8 and named in errors) or an open
    text handle.  Errors carry the 1-based line number of the offending row.
    """
    if hasattr(source, "read"):
        return _load_handle(source)
    try:
        with open(source, "rb") as handle:
            raw = handle.read()
        # decoded whole, so a bad byte's offset gives its line
        return _load_handle(io.StringIO(raw.decode("utf-8"), newline=""))
    except OSError as exc:
        raise DataFormatError(f"cannot read {source}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{source}: line {line_no}: not UTF-8 text ({exc.reason})") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{source}: {exc}") from None


def _load_handle(handle) -> PanelData:
    reader = csv.reader(handle)
    by_path: dict[str, tuple[list, list]] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise DataFormatError("empty file")
        if [c.strip().lower() for c in header] != ["path_id", "time", "value"]:
            raise DataFormatError(
                f"line 1: expected header 'path_id,time,value', got {','.join(header)!r}"
            )
        for row in filter(None, reader):  # skip blank lines
            path_id, t, v = _parse_row(row, reader.line_num)
            times, values = by_path.setdefault(path_id, ([], []))
            if times and not t > times[-1]:
                raise DataFormatError(
                    f"line {reader.line_num}: time {t} does not increase within path {path_id!r}"
                )
            times.append(t)
            values.append(v)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None
    if not by_path:
        raise DataFormatError("no data rows")
    return PanelData(
        times=[np.array(t) for t, _ in by_path.values()],
        values=[np.array(v) for _, v in by_path.values()],
    )


def write_panel_csv(path, data: PanelData) -> None:
    """Write a panel in the `path_id,time,value` format (full precision)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["path_id", "time", "value"])
        for i, (times, values) in enumerate(zip(data.times, data.values)):
            for t, v in zip(times, values):
                writer.writerow([i, repr(float(t)), repr(float(v))])


def _load_bundled(name: str) -> PanelData:
    return load_panel_csv(resources.files("hubbertfit.data") / name)


def load_norway(last_year: int | None = None) -> PanelData:
    """Norway 1980-2014 snapshot; optionally truncated at last_year.

    Truncating at 1999 gives the pre-peak window used to test peak
    prediction from data that do not yet show the maximum.
    """
    panel = _load_bundled("norway_crude_1980_2014.csv")
    if last_year is None:
        return panel
    mask = panel.times[0] <= last_year
    if mask.sum() < 2:
        raise DataFormatError(f"last_year={last_year} leaves fewer than 2 points")
    return PanelData(
        times=[panel.times[0][mask]], values=[panel.values[0][mask]]
    )


def load_kazakhstan() -> PanelData:
    """Kazakhstan 1992-2014 snapshot (peak not yet reached in-window)."""
    return _load_bundled("kazakhstan_crude_1992_2014.csv")
