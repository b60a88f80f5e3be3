"""The speed probe samples while the body runs and stops afterwards."""

import signal
import time

import speed


def test_probe_samples_and_rescales():
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(i * i for i in range(1000))
        wall = time.perf_counter() - t0
    assert len(probe.samples) >= 10
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.slowdown() > 0
    expected = (wall - sum(probe.samples)) / probe.slowdown()
    assert probe.rescale(wall) == expected


def test_short_body_still_gives_a_speed():
    with speed.SpeedProbe() as probe:
        pass
    assert len(probe.samples) == 1 and probe.slowdown() > 0
