import json

import numpy as np
import pytest

from scenq import (
    EncroachmentZone,
    MetricError,
    MetricResult,
    MetricSeries,
    OccupancyInterval,
    ScalarResult,
    undefined_scalar,
    registry,
    write_series,
)
from scenq.results import write_series_batch
from scenq.trace import FloatTexts


def series(values, defined=None, name="ttc"):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return MetricSeries(
        metric_name=name,
        actor_ids=("a", "b"),
        unit="s",
        times=np.arange(n) * 0.1,
        values=values,
        defined=np.ones(n, dtype=bool) if defined is None else np.asarray(defined),
    )


def test_series_validation():
    with pytest.raises(MetricError):
        series([], defined=[])
    with pytest.raises(MetricError):
        MetricSeries("ttc", ("a",), "s", np.array([0.0, 0.0]),
                     np.zeros(2), np.ones(2, dtype=bool))
    with pytest.raises(MetricError):
        MetricSeries("ttc", ("a",), "s", np.array([0.0, 1.0]),
                     np.zeros(3), np.ones(2, dtype=bool))
    with pytest.raises(MetricError):
        series(["nan", 1.0], defined=[True, True])
    # metric names are checked where they enter (registry lookups, criteria),
    # not by the container, so results does not import the registry back
    assert series([1.0, 2.0], name="not_a_metric").metric_name == "not_a_metric"
    with pytest.raises(MetricError):
        registry.get("not_a_metric")


def test_series_zeroes_undefined_values():
    s = series([5.0, 7.0, 9.0], defined=[True, False, True])
    assert s.values[1] == 0.0
    assert s.defined_fraction == pytest.approx(2 / 3)
    assert len(s) == 3
    # undefined samples may carry any payload, even non-finite
    ok = series([1.0, float("inf"), 2.0], defined=[True, False, True])
    assert ok.values[1] == 0.0


def test_series_arrays_frozen():
    s = series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 3.0


def test_metric_result_finite_check():
    MetricResult(time=0.0, value=1.0, unit="s")
    with pytest.raises(MetricError):
        MetricResult(time=0.0, value=float("nan"), unit="s")
    MetricResult(time=0.0, value=float("nan"), unit="s", defined=False)


def test_scalar_result_and_undefined_helper():
    with pytest.raises(MetricError):
        ScalarResult("pet", float("inf"), "s")
    u = undefined_scalar("pet", "s", "never_occupies", actor="walker")
    assert not u.defined
    assert u.context == {"reason": "never_occupies", "actor": "walker"}


def test_zone_and_interval_validation():
    with pytest.raises(MetricError):
        EncroachmentZone(np.array([[0.0, 0.0], [1.0, 0.0]]), ("a", "b"))
    with pytest.raises(MetricError):  # clockwise ring has negative area
        EncroachmentZone(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
                         ("a", "b"))
    with pytest.raises(MetricError):
        OccupancyInterval("a", 2.0, 2.0)
    assert OccupancyInterval("a", 1.0, 3.5).duration == 2.5


def test_write_series_csv_and_sidecar(tmp_path):
    s = series([1.5, 2.5, 3.5], defined=[True, False, True])
    p = tmp_path / "ttc.csv"
    write_series(s, p, parameters={"ego": "ego", "target": "walker"})
    lines = p.read_text().splitlines()
    assert lines[0] == "time_s,value,defined"
    assert lines[1].startswith("0.0,1.5,")
    # undefined rows leave the value cell empty
    assert ",," in lines[2] or lines[2].split(",")[1] == ""
    meta = json.loads((tmp_path / "ttc.csv.meta.json").read_text())
    assert meta["metric_name"] == "ttc"
    assert meta["unit"] == "s"
    assert meta["parameters"]["target"] == "walker"


def reference_series_csv(s):
    """Reference series writer, one sample at a time."""
    lines = ["time_s,value,defined"]
    for i in range(len(s)):
        t = float(s.times[i])
        if s.defined[i]:
            lines.append(f"{t!r},{float(s.values[i])!r},true")
        else:
            lines.append(f"{t!r},,false")
    return "\n".join(lines) + "\n"


def test_write_series_matches_reference_writer(tmp_path):
    rng = np.random.default_rng(9)
    special = np.array([-0.0, 5e-324, 1e22, 0.1 + 0.2])
    for n in (1, 2, 7, 500):
        values = rng.normal(scale=10.0, size=n)
        values[rng.random(n) < 0.3] = rng.choice(special)
        s = MetricSeries("ttc", ("a", "b"), "s", times=np.cumsum(rng.uniform(0.01, 0.2, n)) - 0.1,
                         values=values, defined=rng.random(n) < 0.7)
        write_series(s, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text() == reference_series_csv(s)


def per_row_series_csv(series):
    """The per-row writer ``write_series`` used before the batch writer: one
    f-string per row over the builtin floats of ``tolist``."""
    rows = (
        f"{t!r},{v!r},true" if d else f"{t!r},,false"
        for t, v, d in zip(series.times.tolist(), series.values.tolist(), series.defined.tolist())
    )
    return "\n".join(["time_s,value,defined", *rows]) + "\n"


def test_batch_series_writer_matches_the_per_row_writer(tmp_path, monkeypatch):
    rng = np.random.default_rng(16)
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.2, 299))])  # shared by traces

    def drawn(times, name="ttc"):
        n = len(times)
        values = rng.normal(scale=10.0, size=n)
        values[rng.random(n) < 0.2] = -0.0
        values[rng.random(n) < 0.2] = 0.0
        return MetricSeries(name, ("a", "b"), "s", times, values, rng.random(n) < 0.7)

    shared = drawn(grid)  # judged by two criteria, as ttc_floor and ttc_while_braking are
    signed = MetricSeries("gap_time", ("a", "b"), "s", [-0.0, 0.5, 1.0], [-0.0, 0.0, 2.0],
                          [True, True, False])  # time -0.0 next to the 0.0 of the grid
    one = MetricSeries("wttc", ("a",), "s", [0.25], [-0.0], [True])
    traces = {  # the plot files of each trace, as evaluate writes them
        "t1": [(shared, tmp_path / "floor_t1.csv"), (shared, tmp_path / "braking_t1.csv"),
               (drawn(grid, "wttc"), tmp_path / "wttc_t1.csv"), (signed, tmp_path / "gap_t1.csv")],
        "t2": [(drawn(grid.copy()), tmp_path / "floor_t2.csv"), (one, tmp_path / "one_t2.csv"),
               (MetricSeries("ttc", ("a",), "s", grid[:9], np.ones(9), np.zeros(9, bool)),
                tmp_path / "undefined_t2.csv")],
        "t3": [(drawn(grid[::3]), tmp_path / "floor_t3.csv")],
    }

    def bits(files):
        return {v.tobytes() for s, _ in files for v in np.concatenate([s.times, s.values])}

    # repr once per distinct bit pattern of a trace that the trace before did not hold
    float_texts, calls = FloatTexts(), []
    monkeypatch.setattr("scenq.trace.repr", lambda v: calls.append(v) or repr(v), raising=False)
    held = {np.float64(0.0).tobytes()}
    for files in traces.values():
        calls.clear()
        write_series_batch(files, float_texts)
        assert len(calls) == len(bits(files) - held)
        held = bits(files)
        for series, path in files:
            assert path.read_text() == per_row_series_csv(series)
    # the batch writer writes CSVs only: evaluate writes one sidecar per criterion
    assert sorted(tmp_path.glob("*.meta.json")) == []
