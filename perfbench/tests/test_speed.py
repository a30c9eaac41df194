import time

import pytest

import speed
from speed import REFERENCE_S, SpeedProbe


def _probe(samples):
    probe = SpeedProbe()
    for start, cost in samples:
        probe.starts.append(start)
        probe.ends.append(start + cost)
        probe.costs.append(cost)
    return probe


def test_stretches_are_scaled_by_the_probe_that_ends_them():
    # probes at 1.0 (reference cost) and 2.0 (twice the cost: half speed)
    probe = _probe([(1.0, REFERENCE_S), (2.0, 2 * REFERENCE_S)])
    got = probe.reference_seconds(0.0, 3.0)
    first = 1.0
    second = (2.0 - (1.0 + REFERENCE_S)) / 2
    tail = (3.0 - (2.0 + 2 * REFERENCE_S)) / 2
    assert got == pytest.approx(first + second + tail)


def test_an_interval_without_probes_uses_the_nearest_one():
    probe = _probe([(1.0, 2 * REFERENCE_S), (5.0, REFERENCE_S)])
    assert probe.reference_seconds(2.0, 3.0) == pytest.approx(0.5)
    assert probe.reference_seconds(0.0, 0.5) == pytest.approx(0.25)


def test_no_samples_is_an_error():
    with pytest.raises(RuntimeError):
        SpeedProbe().reference_seconds(0.0, 1.0)


def test_a_started_probe_samples_and_stops():
    probe = SpeedProbe()
    probe.start()
    try:
        end = speed.clock() + 0.2
        while speed.clock() < end:
            pass
    finally:
        probe.stop()
    count = len(probe.starts)
    assert count >= 3
    time.sleep(2 * speed.INTERVAL_S)
    assert len(probe.starts) == count
    assert probe.reference_seconds(probe.starts[0], probe.ends[-1]) > 0
