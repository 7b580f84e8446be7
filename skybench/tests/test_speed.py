"""The speed sampler's process lifetime and its scaling arithmetic.

Run with ``python3 -m pytest skybench/tests -q`` from the repo root.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(
    __file__)), os.pardir))

from speed import PAD_S, REFERENCE_S, Sampler  # noqa: E402


def sampler_with(samples):
    """A stopped sampler holding ``samples`` instead of measured ones."""
    sampler = Sampler.__new__(Sampler)
    sampler.proc = None
    sampler.samples = samples
    return sampler


class TestScaling:
    def test_reference_speed_leaves_time_unchanged(self):
        sampler = sampler_with([(5.0, REFERENCE_S), (6.0, REFERENCE_S)])
        assert sampler.scaled(2.0, 5.0) == pytest.approx(2.0)

    def test_twice_as_slow_halves_the_time(self):
        sampler = sampler_with([(5.5, 2 * REFERENCE_S)])
        assert sampler.slowness(5.0, 6.0) == pytest.approx(2.0)
        assert sampler.scaled(1.0, 5.0) == pytest.approx(0.5)

    def test_only_samples_near_the_interval_count(self):
        far = 10.0 + PAD_S + 0.5
        sampler = sampler_with([(10.0 - PAD_S, REFERENCE_S),
                                (10.5, 3 * REFERENCE_S),
                                (far, 100 * REFERENCE_S)])
        assert sampler.slowness(10.0, 11.0 - PAD_S) == pytest.approx(2.0)

    def test_no_sample_near_the_interval_raises(self):
        sampler = sampler_with([(0.0, REFERENCE_S)])
        with pytest.raises(RuntimeError):
            sampler.slowness(100.0, 101.0)

    def test_run_slowness_is_the_mean_over_all_samples(self):
        sampler = sampler_with([(0.0, REFERENCE_S),
                                (99.0, 3 * REFERENCE_S)])
        assert sampler.run_slowness() == pytest.approx(2.0)


class TestProcess:
    def test_stop_ends_the_process_and_loads_samples(self, tmp_path):
        sampler = Sampler(str(tmp_path / "speed.json"))
        proc = sampler.proc
        sampler.stop()
        assert proc.returncode == 0
        assert sampler.proc is None
        assert len(sampler.samples) >= 1
        assert all(cpu > 0 for _mid, cpu in sampler.samples)
        sampler.stop()  # a second stop is a no-op
