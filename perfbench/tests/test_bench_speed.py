import time

import pytest

import speed
from speed import REFERENCE_S, SpeedMeter


def _meter(readings):
    meter = SpeedMeter()
    meter.readings = list(readings)
    return meter


def test_scaled_time_at_reference_speed_is_unchanged():
    meter = _meter([(0.0, REFERENCE_S), (1.0, REFERENCE_S)])
    assert meter.scaled(0.25, 0.75) == pytest.approx(0.5)


def test_scaled_time_divides_by_the_slowdown_of_each_stretch():
    # stretch 0-1 at the mean of 1x and 2x, stretch 1-2 at 2x
    meter = _meter([(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S), (2.0, 2 * REFERENCE_S)])
    assert meter.scaled(0.5, 1.5) == pytest.approx(0.5 / 1.5 + 0.5 / 2)


def test_nearest_reading_holds_outside_the_readings():
    meter = _meter([(1.0, 2 * REFERENCE_S), (2.0, REFERENCE_S)])
    assert meter.scaled(0.0, 1.0) == pytest.approx(0.5)
    assert meter.scaled(2.0, 3.0) == pytest.approx(1.0)


def test_meter_clock_leaves_out_its_own_readings():
    meter = SpeedMeter()
    meter.start()
    try:
        paused, wall, before = meter.paused, time.perf_counter(), meter.clock()
        while len(meter.readings) < 4:
            speed._kernel()
        elapsed, wall = meter.clock() - before, time.perf_counter() - wall
        paused = meter.paused - paused
    finally:
        meter.stop()
    assert paused > 0
    assert elapsed == pytest.approx(wall - paused, abs=1e-3)
