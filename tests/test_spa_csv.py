"""The trajectory tables' writers: the vectorised '%.10g' cells and the blocks.

_trajcsv writes traj_segments.csv and traj_sampled.csv a block of
trajectories at a time, every float cell printed by _cells._g10_cells and
every integer by _cells._int_cells. These tests pin the float cells to
Python's '%.10g' for finite doubles of every magnitude, and both files,
written through spa, to their scalar references across block edges, on
segments whose speed is held and with vehicle ids of every sign and size.
"""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsim import _cells, _trajcsv
from platoonsim._cells import _g10_cells
from platoonsim.core import SimParams
from platoonsim.spa import (Segment, Trajectory, _build_segments, plan_min_distance,
                             write_sampled_csv, write_segments_csv)

from oracle_utils import write_sampled_csv_reference, write_segments_csv_reference


def g10_texts(values):
    cells = _g10_cells(np.array(values, dtype=np.float64))
    return [bytes(row).replace(b"\0", b"") for row in cells]


def python_texts(values):
    return [("%.10g" % v).encode() for v in values]


def ulps_away(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# ===================== cells =====================

EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 1e10,
         9_999_999_999.5, 9_999_999_999.499998, 1_234_567_890.5, 1_234_567_891.5, 0.5, 2.5,
         99.999_999_995, 0.000_099_999_999_995, 1e-5, 12_345_678.125, 15.0, -300.0, 4.0]

any_double = st.floats(allow_nan=False, allow_infinity=False)
near_powers = st.builds(lambda k, steps, sign: sign * ulps_away(10.0 ** k, steps),
                        st.integers(-12, 16), st.integers(-4, 4), st.sampled_from([1.0, -1.0]))
# Exact ties, halfway between two '%.10g' outputs: an (11 - j)-digit
# integer plus an odd multiple of 2^-j, whose j decimals end in 5, and
# eleven-digit and longer integers ending in 5.
ties = st.one_of(
    st.integers(1, 10).flatmap(lambda j: st.builds(
        lambda n, i: n + (2 * i + 1) / 2 ** j,
        st.integers(10 ** (10 - j), 10 ** (11 - j) - 1), st.integers(0, 2 ** (j - 1) - 1))),
    st.builds(lambda n, k: (10 * n + 5) * 10 ** k,
              st.integers(10 ** 9, 10 ** 10 - 1), st.integers(0, 4)))
dyadic = st.builds(lambda n, j: n / 2 ** j, st.integers(-2 ** 53, 2 ** 53), st.integers(0, 80))
decimal = st.builds(lambda n, k: n / 10 ** k, st.integers(-10 ** 12, 10 ** 12), st.integers(0, 16))
cell_values = st.one_of(any_double, near_powers, ties, dyadic, decimal, st.sampled_from(EDGES))


@settings(max_examples=400, deadline=None)
@given(st.lists(cell_values, min_size=1, max_size=40))
def test_cells_are_python_g10(values):
    assert g10_texts(values) == python_texts(values)


def test_cells_are_python_g10_across_magnitudes():
    rng = np.random.default_rng(21)
    values = np.concatenate([
        10.0 ** rng.uniform(-6, 12, 100_000) * rng.choice([-1.0, 1.0], 100_000),
        np.round(rng.uniform(-300.0, 300.0, 50_000), 3),  # positions and speeds
        np.cumsum(np.full(50_000, 0.1)),                   # running-sum sample times
        # Eleven significant digits ending in 5: the double is a hair off the
        # tie, and its scaled product can round onto it.
        (rng.integers(10 ** 9, 10 ** 10, 50_000) * 10 + 5) / 10.0 ** rng.integers(1, 15, 50_000),
    ]).tolist()
    values += [sign * ulps_away(10.0 ** k, s) for k in range(-5, 12) for s in range(-3, 4)
               for sign in (1.0, -1.0)]
    values += EDGES + [-v for v in EDGES] + [math.inf, -math.inf, math.nan]
    assert g10_texts(values) == python_texts(values)


def test_cells_of_nothing():
    assert _g10_cells(np.array([])).shape[0] == 0


# ===================== blocks =====================

def five_segment(vehicle_id, t0, rows, dt=0.5):
    """Five segments over rows - 1 steps of dt: rows samples, for binary-fraction t0 and dt."""
    span = (rows - 1) * dt
    pieces = [(span / 4, 0.0), (span / 8, -4.0), (span / 4, 0.0), (span / 8, 4.0), (span / 4, 0.0)]
    return Trajectory(t0=t0, t_f=t0 + span, x0=-300.0 - vehicle_id / 3, v0=15.0,
                      segments=_build_segments(t0, -300.0 - vehicle_id / 3, 15.0, pieces),
                      t_full=t0 + span, vehicle_id=vehicle_id)


def written(write, trajectories, path, *dt):
    write(trajectories, str(path), *dt)
    return path.read_bytes()


def block_sizes(monkeypatch, name):
    sizes = []
    block = getattr(_trajcsv, name)

    def counted(trajectories, *args):
        sizes.append(len(trajectories))
        return block(trajectories, *args)
    monkeypatch.setattr(_trajcsv, name, counted)
    return sizes


# A trajectory of r rows at dt 0.5 from a binary-fraction t0 takes r + 1
# columns of the sample matrix: 128 trajectories of 95 rows fill one block.
@pytest.mark.parametrize("count, sizes", [(127, [127]), (128, [128]), (129, [128, 1])])
def test_sampled_blocks_meet_the_reference_at_the_edge(tmp_path, monkeypatch, count, sizes):
    assert _trajcsv.SAMPLE_BLOCK == 128 * 96
    trajectories = [five_segment(i, 0.25 * i, 95) for i in range(count)]
    seen = block_sizes(monkeypatch, "_sampled_block")
    got = written(write_sampled_csv, trajectories, tmp_path / "got.csv", 0.5)
    assert seen == sizes
    assert got == written(write_sampled_csv_reference, trajectories, tmp_path / "want.csv", 0.5)
    assert got.count(b"\r\n") == 1 + 95 * count


def point(t, vehicle_id=-7, x0=-1.0, v0=15.0):
    """A point trajectory (t_f = t0): three columns of the sample matrix, one row."""
    return Trajectory(t0=t, t_f=t, x0=x0, v0=v0, segments=_build_segments(t, x0, v0, []),
                      t_full=t, vehicle_id=vehicle_id)


def test_sampled_long_and_one_row_trajectories(tmp_path, monkeypatch):
    # One trajectory longer than a block is a block of its own.
    per_block = _trajcsv.SAMPLE_BLOCK // 3
    trajectories = ([five_segment(i, 0.5 * i, 40) for i in range(10)]
                    + [five_segment(10, 2.0, _trajcsv.SAMPLE_BLOCK)]
                    + [point(t) for t in np.linspace(3.0, 90.0, per_block + 1).tolist()])
    seen = block_sizes(monkeypatch, "_sampled_block")
    got = written(write_sampled_csv, trajectories, tmp_path / "got.csv", 0.5)
    assert seen == [10, 1, per_block, 1]
    assert got == written(write_sampled_csv_reference, trajectories, tmp_path / "want.csv", 0.5)


# ===================== held speeds =====================

def pieced(vehicle_id, t0, x0, v0, pieces):
    return Trajectory(t0=t0, t_f=t0 + sum(d for d, _ in pieces), x0=x0, v0=v0,
                      segments=_build_segments(t0, x0, v0, pieces), t_full=t0,
                      vehicle_id=vehicle_id)


def signed_zeros(vehicle_id, t0):
    """Hand-made segments whose speed or acceleration is -0.0 or +0.0."""
    segments = [Segment(t0, 1.0, -0.0, -9.0, -0.0), Segment(t0 + 1.0, 1.5, 0.0, -9.0, -0.0),
                Segment(t0 + 2.5, 1.0, -0.0, -9.0, 0.0), Segment(t0 + 3.5, 1.0, 4.0, -9.0, -0.0),
                Segment(t0 + 4.5, 1.0, -4.0, -7.0, 4.0), Segment(t0 + 5.5, 1.0, 0.0, -5.0, 0.0)]
    return Trajectory(t0=t0, t_f=t0 + 6.5, x0=-9.0, v0=-0.0, segments=segments, t_full=t0,
                      vehicle_id=vehicle_id)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0
def test_held_speeds_meet_the_reference(tmp_path):
    # A segment without acceleration prints one speed cell for all its rows:
    # dwells at v = 0, signed zeros, trajectories with no accelerating
    # sample and with nothing but accelerating samples.
    params = SimParams()
    dwell = [plan_min_distance(-300.0, t0 + 40.0 + t0 / 7, params, t0=t0) for t0 in (0.0, 3.3)]
    assert [(s.v_start, s.accel) for s in dwell[0].segments][2] == (0.0, 0.0)
    cruise = [pieced(20 + i, 1.0 + i, -300.0, 15.0, [(20.0 + i / 3, 0.0)]) for i in range(3)]
    braking = [pieced(30 + i, 0.7 * i, -300.0, 15.0, [(3.0 + i / 5, -4.0)]) for i in range(3)]
    starting = [pieced(40, 2.0, -9.0, 0.0, [(3.75, 4.0)])]
    # A crossing sampled at -0.0 on a segment starting at +0.0: d = -0.0, so
    # the sample's own v = -0.0 + 0.0 * -0.0 = -0.0 differs from the held cell.
    edge = [Trajectory(t0=0.0, t_f=-0.0, x0=-2.0, v0=-0.0,
                       segments=[Segment(0.0, 0.0, 0.0, -2.0, -0.0)], t_full=0.0, vehicle_id=50)]
    # A segment without bounds: d = inf, and 0.0 * inf is nan, not 0.
    edge.append(Trajectory(t0=0.0, t_f=1.0, x0=-1.0, v0=2.0, t_full=0.0, vehicle_id=51,
                           segments=[Segment(-math.inf, math.inf, 0.0, -1.0, 2.0)]))
    for trajectories in (dwell, cruise, braking, starting, edge,
                         [signed_zeros(60, 0.0), signed_zeros(61, 0.25)],
                         dwell + cruise + braking + starting + edge + [signed_zeros(62, 9.5)]):
        got = written(write_sampled_csv, trajectories, tmp_path / "got.csv", 0.1)
        assert got == written(write_sampled_csv_reference, trajectories, tmp_path / "want.csv",
                              0.1)
    assert b"\r\n50,-0,-2,-0,0\r\n51,0,nan,nan,0\r\n" in got


@pytest.mark.parametrize("count", [_trajcsv.SEGMENT_BLOCK + k for k in (-1, 0, 1)])
def test_segment_blocks_meet_the_reference_at_the_edge(tmp_path, count):
    trajectories = [five_segment(i, 0.1 * i + 1e-3, 7 + i % 5, dt=0.3) for i in range(count)]
    got = written(write_segments_csv, trajectories, tmp_path / "got.csv")
    assert got == written(write_segments_csv_reference, trajectories, tmp_path / "want.csv")


def test_tables_print_vehicle_ids_of_every_sign_and_size(tmp_path):
    # The default id -1, 0, both ends of int64 and an id past it.
    ids = [-1, 0, 2 ** 63 - 1, -2 ** 63, 2 ** 70]
    trajectories = [dataclasses.replace(five_segment(i, 0.5 * i, 9), vehicle_id=vehicle_id)
                    for i, vehicle_id in enumerate(ids)]
    got = written(write_segments_csv, trajectories, tmp_path / "got.csv")
    assert got == written(write_segments_csv_reference, trajectories, tmp_path / "want.csv")
    got = written(write_sampled_csv, trajectories, tmp_path / "got.csv", 0.5)
    assert got == written(write_sampled_csv_reference, trajectories, tmp_path / "want.csv", 0.5)
    assert [int(line.split(b",")[0]) for line in got.splitlines()[1::9]] == ids


def test_sampled_writer_holds_one_block_at_a_time(tmp_path):
    # 2 000 trajectories of 201 rows, a 10.5 MB table, written with a
    # traced peak of about 0.7 MB: one block's arrays and text at a time.
    trajectories = [five_segment(i, 0.25 * i, 201) for i in range(2000)]
    _cells._digit_tables()
    tracemalloc.start()
    try:
        write_sampled_csv(trajectories, str(tmp_path / "sampled.csv"), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "sampled.csv").stat().st_size
    assert size > 10 * 2 ** 20
    assert peak < 2 * 2 ** 20, peak
