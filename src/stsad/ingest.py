"""Trip-record ingestion: hourly arrival counts into the 4-mode tensor
(hour of day, day of week, ISO week 1-52, zone)."""

from __future__ import annotations

import csv
import itertools
from datetime import datetime, timedelta

import numpy as np

HOURS, DAYS, WEEKS = 24, 7, 52


def read_zone_list(path):
    """Zone ids, one per line, kept in file order."""
    with open(path) as fh:
        zones = [line.strip() for line in fh if line.strip()]
    if not zones:
        raise ValueError(f"{path}: empty zone list")
    if len(set(zones)) != len(zones):
        raise ValueError(f"{path}: duplicate zone ids")
    return zones


def _rows(path, columns):
    """The records of the CSV file at ``path`` as ("file:line", record)
    pairs, once its header is checked to name every one of ``columns``.
    Blank lines are skipped but counted.  A record the csv module rejects
    raises ValueError naming its first line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)

        def numbered():  # (first line, values) per row, blank ones as []
            while True:
                line = reader.line_num + 1  # blank lines count too
                try:
                    values = next(reader)
                except StopIteration:
                    return
                except csv.Error as exc:
                    raise ValueError(f"{path}:{line}: {exc}") from exc
                yield line, values

        rows = numbered()
        _, fields = next(rows, (0, []))
        for col in columns:
            if col not in fields:
                raise ValueError(f"{path}: missing column {col!r} in header")
        for line, values in rows:
            if values:  # a short row's missing fields are None
                yield f"{path}:{line}", dict(itertools.zip_longest(fields, values))


def _parse_timestamp(text, where):
    try:
        return datetime.fromisoformat(text.strip())
    except (ValueError, AttributeError, TypeError) as exc:
        raise ValueError(f"{where}: unparseable timestamp {text!r}") from exc


def _cell(dt, year):
    """Tensor coordinates of a timestamp, or None when outside ISO weeks 1-52
    of the requested year."""
    iso = dt.isocalendar()
    if iso.year != year or iso.week > WEEKS:
        return None
    return dt.hour, dt.weekday(), iso.week - 1


def ingest_trips(csv_paths, zone_list, year, timestamp_column="timestamp",
                 zone_column="zone"):
    """Count arrivals per (hour, day-of-week, week, zone).

    Returns (Y, observed, summary); every cell counts as observed (a zero is
    a measurement).  Records in unknown zones or outside ISO weeks 1-52 of
    ``year`` are dropped and tallied in the summary.
    """
    zone_index = {z: i for i, z in enumerate(zone_list)}
    Y = np.zeros((HOURS, DAYS, WEEKS, len(zone_list)))
    counted = dropped_zone = dropped_week = 0
    for path in csv_paths:
        for where, record in _rows(path, (timestamp_column, zone_column)):
            dt = _parse_timestamp(record[timestamp_column], where)
            zone = (record[zone_column] or "").strip()
            if zone not in zone_index:
                dropped_zone += 1
                continue
            cell = _cell(dt, year)
            if cell is None:
                dropped_week += 1
                continue
            hour, day, week = cell
            Y[hour, day, week, zone_index[zone]] += 1
            counted += 1
    if counted == 0:
        raise ValueError("no records ingested: check zones, year and columns")
    summary = {
        "counted": counted,
        "dropped_zone": dropped_zone,
        "dropped_week": dropped_week,
    }
    return Y, np.ones(Y.shape, dtype=bool), summary


def events_from_csv(path, zone_list, year):
    """Events from rows ``zone,start_datetime,end_datetime``, as a list of
    (name, set of element index tuples) pairs.

    Each event maps to the set of tensor cells touched by any full hour from
    the start (floored to the hour) through the end, inclusive.
    """
    zone_index = {z: i for i, z in enumerate(zone_list)}
    events = []
    for where, record in _rows(path, ("zone", "start_datetime", "end_datetime")):
        zone = (record["zone"] or "").strip()
        if zone not in zone_index:
            raise ValueError(f"{where}: unknown zone {zone!r}")
        start = _parse_timestamp(record["start_datetime"], where)
        end = _parse_timestamp(record["end_datetime"], where)
        if (start.tzinfo is None) != (end.tzinfo is None):
            raise ValueError(
                f"{where}: start and end must both have a UTC offset or neither"
            )
        if end < start:
            raise ValueError(f"{where}: event ends before it starts")
        indices = set()
        t = start.replace(minute=0, second=0, microsecond=0)
        while t <= end:
            cell = _cell(t, year)
            if cell is not None:
                hour, day, week = cell
                indices.add((hour, day, week, zone_index[zone]))
            t += timedelta(hours=1)
        name = f"{zone} {record['start_datetime']}"
        events.append((name, indices))
    if not events:
        raise ValueError(f"{path}: no events found")
    return events
