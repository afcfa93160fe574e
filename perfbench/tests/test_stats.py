"""The percentile reporting rule."""

import pytest

from benchlib.stats import beyond, median, percentile, supported_percentile


def test_percentile_is_nearest_rank_sample():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 95) == 95.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0
    assert median([3.0, 1.0, 2.0]) == 2.0


@pytest.mark.parametrize("n, expected", [
    (19, None),      # median has only 9 beyond it
    (20, 50.0),
    (39, 50.0),      # p75 would have 9 beyond
    (40, 75.0),
    (100, 90.0),
    (199, 90.0),     # p95 would have 9 beyond
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_needed_matches_the_rule():
    from benchlib.stats import needed
    assert needed(95) == 200 and needed(50) == 20
    assert beyond(needed(99), 99) >= 10 and beyond(needed(99) - 1, 99) < 10


def test_windowed_is_a_median_of_supported_window_percentiles():
    from benchlib.stats import windowed
    calm = [1.0] * 180 + [2.0] * 20
    stalled = [1.0] * 100 + [50.0] * 100         # one window with a stall
    values = calm * 2 + stalled + calm * 2
    assert windowed(values, 95) == 2.0            # the stall window is outvoted
    assert percentile(values, 95) == 50.0
    # too few samples for two p95 windows: the plain percentile
    assert windowed(values[:399], 95) == percentile(values[:399], 95)
    # window counts stay odd, so the median is a real window's value
    assert windowed(
        [1.0] * 200 + [3.0] * 200 + [2.0] * 200 + [9.0] * 200, 50, windows=5
    ) == 2.0


def test_windowed_rate_takes_the_median_window():
    from benchlib.stats import windowed_rate
    times = [i / 10 for i in range(100)]          # 10 per second for 10 s
    times += [5.5] * 40                           # one burst
    assert windowed_rate(times, [(0.0, 10.0)], windows=5) == 10.0


def test_windows_the_neighbours_stole_from_are_left_out():
    from benchlib.stats import windowed, windowed_rate
    # 5 windows of 200 samples, one second each; windows 1-3 are slow
    # because another guest held the CPUs
    values = [1.0] * 200 + [5.0] * 600 + [1.0] * 200
    spans = [(i / 200, i / 200) for i in range(1000)]

    def steal(start, end):
        return 0.2 if 1 <= start < 4 else 0.0

    assert windowed(values, 95, spans=spans) == 5.0
    assert windowed(values, 95, spans=spans, steal=steal) == 1.0
    # no steal anywhere: every window counts
    assert windowed(values, 95, spans=spans, steal=lambda a, b: 0.0) == 5.0
    times = ([i / 200 for i in range(200)] + [1.5, 2.5, 3.5]
             + [4 + i / 200 for i in range(200)])
    assert windowed_rate(times, [(0.0, 5.0)], windows=5) == 1.0
    assert windowed_rate(times, [(0.0, 5.0)], windows=5, steal=steal) == 200.0


def test_stolen_seconds_are_left_out_of_a_single_window_percentile():
    from benchlib.stats import windowed
    # 300 samples over 15 s, too few for two p95 windows; the 5 s the
    # neighbours stole from were slow
    values = [1.0] * 100 + [5.0] * 100 + [1.0] * 100
    spans = [(i / 20, i / 20 + 0.01) for i in range(300)]

    def steal(start, end):
        return 0.2 if 5 <= start < 10 else 0.0

    assert windowed(values, 95, spans=spans) == 5.0
    assert windowed(values, 95, spans=spans, steal=steal) == 1.0
    # the quiet seconds hold enough samples for the percentile, or all
    assert windowed(values[:150], 95, spans=spans[:150], steal=steal) == 5.0


def test_steal_clock_share_spans_the_samples_around_a_window():
    from benchlib.steal import StealClock
    readings = iter([(0, 100), (10, 200), (10, 300), (40, 400)])
    ticks = iter([0.0, 1.0, 2.0, 3.0])
    clock = StealClock(read=lambda: next(readings), clock=lambda: next(ticks))
    for _ in range(4):
        clock.sample()
    assert clock.share(0.0, 1.0) == 0.1
    assert clock.share(1.2, 1.8) == 0.0          # inside one quiet interval
    assert clock.share(2.5, 3.0) == 0.3
    assert clock.share(0.0, 3.0) == 40 / 300
    assert StealClock().share(0.0, 1.0) == 0.0   # nothing sampled yet


def test_windowed_rate_cuts_each_slice_of_a_phase():
    from benchlib.stats import windowed_rate
    # two 1 s slices 5 s apart, 10 and 30 events per second; the idle gap
    # between them is not part of the phase
    times = [i / 10 for i in range(10)] + [5 + i / 30 for i in range(30)]
    assert windowed_rate(times, [(0.0, 1.0), (5.0, 6.0)], windows=2) == 10.0
    assert windowed_rate(times, [(0.0, 1.0), (5.0, 6.0)], windows=4) == 10.0
