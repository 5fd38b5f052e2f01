import pytest
from hypothesis import given, strategies as st

from xrprobe.clocks import DeviceClock
from xrprobe.scenario import ClockSpec
from xrprobe.schema import SchemaError


def drawn(device="a", seed=0, join_ms=0.0, end_ms=600_000.0, sigma_ntp_ms=0.5,
          sync_interval_s=64.0, max_drift_ppm=2.0, initial_offset_sigma_ms=0.5):
    return DeviceClock.draw(device, seed=seed, join_ms=join_ms, end_ms=end_ms,
                            sigma_ntp_ms=sigma_ntp_ms, sync_interval_s=sync_interval_s,
                            max_drift_ppm=max_drift_ppm,
                            initial_offset_sigma_ms=initial_offset_sigma_ms)


def test_identity_clock():
    clock = DeviceClock("a", drift_ppm=0.0, starts=[0.0], offsets=[0.0])
    assert clock.read(1000) == 1000


def test_constant_offset():
    clock = DeviceClock("a", drift_ppm=0.0, starts=[0.0], offsets=[5.0])
    assert clock.read(1000) == 1005


def test_linear_drift():
    clock = DeviceClock("a", drift_ppm=100.0, starts=[0.0], offsets=[0.0])
    assert clock.read(10_000) == 10_001


def test_before_anchor_rejected():
    clock = drawn(join_ms=500.0)
    with pytest.raises(ValueError, match="precedes join"):
        clock.read(499.0)
    with pytest.raises(ValueError):
        clock.local(499.0)


@given(st.integers(0, 2**16), st.lists(st.floats(500.0, 60_000.0) | st.sampled_from(
    [500.0, 5_500.0, 10_500.0, 60_500.0]), max_size=40))
def test_read_sorted_is_read(seed, times):
    # nondecreasing times, some exactly on a sync, read bit for bit as read()
    clock = drawn(seed=seed, join_ms=500.0, end_ms=60_500.0, sync_interval_s=5.0,
                  max_drift_ppm=50.0)
    times.sort()
    assert clock.read_sorted(times) == [clock.read(t) for t in times]
    with pytest.raises(ValueError, match="precedes join"):
        clock.read_sorted([499.0, 600.0])


def test_sync_sigma_zero_is_exact():
    clock = drawn(sigma_ntp_ms=0.0, initial_offset_sigma_ms=7.5)
    assert len(clock.offsets) > 1
    assert clock.offsets[0] != 0.0
    assert clock.offsets[1:] == [0.0] * (len(clock.offsets) - 1)


def test_sync_preserves_drift_and_moves_anchor():
    clock = drawn(join_ms=100.0, end_ms=200_100.0, sync_interval_s=50.0)
    assert clock.starts == [100.0, 50_100.0, 100_100.0, 150_100.0, 200_100.0]
    assert len(clock.offsets) == len(clock.starts)
    assert len(set(clock.offsets)) == len(clock.offsets)
    # one drift for the whole session: the error restarts at every sync
    t = 150_100.0 + 20_000.0
    expected = t + clock.offsets[3] + clock.drift_ppm * 1e-6 * 20_000.0
    assert clock.local(t) == pytest.approx(expected, abs=1e-9)


def test_sync_negative_sigma_rejected():
    # the clock draws its sigmas from ClockSpec, which holds the rule
    with pytest.raises(SchemaError):
        ClockSpec(sigma_ntp_ms=-0.1)
    with pytest.raises(SchemaError):
        ClockSpec(initial_offset_sigma_ms=-0.1)


def test_sync_draw_spread():
    clock = drawn(seed=42, end_ms=10_000_000.0, sync_interval_s=1.0,
                  sigma_ntp_ms=0.5, initial_offset_sigma_ms=0.0)
    draws = clock.offsets[1:]
    assert len(draws) == 10_000
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert 0.45 <= var ** 0.5 <= 0.55


@given(
    seed=st.integers(0, 2**32),
    max_drift=st.floats(0.0, 1e5),
    segment=st.integers(0, 9),
    a=st.floats(0.0, 63_999.0),
    b=st.floats(0.0, 63_999.0),
)
def test_monotone_for_physical_drifts(seed, max_drift, segment, a, b):
    # within one sync segment the local map has slope 1 + drift > 0
    clock = drawn(seed=seed, join_ms=1e12, end_ms=1e12 + 640_000.0,
                  sync_interval_s=64.0, max_drift_ppm=max_drift,
                  sigma_ntp_ms=50.0, initial_offset_sigma_ms=50.0)
    ta, tb = sorted((clock.starts[segment] + a, clock.starts[segment] + b))
    assert clock.read(ta) <= clock.read(tb)


@given(st.floats(0, 1e9), st.floats(0, 1e9))
def test_zero_error_clocks_agree(t_rel, join):
    # a clock without drift or offsets is the identity on true time
    zero = dict(join_ms=join, end_ms=join + 1e9, sync_interval_s=1e5,
                sigma_ntp_ms=0.0, max_drift_ppm=0.0, initial_offset_sigma_ms=0.0)
    c1, c2 = drawn("a", **zero), drawn("b", **zero)
    t = join + t_rel
    assert c1.read(t) == c2.read(t) == round(t)
    assert c1.invert(t) == t


@given(
    seed=st.integers(0, 2**32),
    sigma=st.floats(0.0, 0.02),
    interval_s=st.floats(1.0, 64.0),
    frac=st.floats(0.0, 1.0),
)
def test_invert_roundtrip_across_syncs(seed, sigma, interval_s, frac):
    # sync steps stay well under half a millisecond at these sigmas, so the
    # snap at a forward step moves the reading by less than that
    join, end = 1.7e12, 1.7e12 + 600_000.0
    clock = drawn(seed=seed, join_ms=join, end_ms=end, sigma_ntp_ms=sigma,
                  sync_interval_s=interval_s, initial_offset_sigma_ms=sigma)
    x = clock.local(join) + frac * (clock.local(end) - clock.local(join))
    t = clock.invert(x)
    assert t >= join
    assert abs(clock.read(t) - x) <= 1.0


def test_invert_snaps_forward_gap_and_takes_earliest_overlap():
    forward = DeviceClock("a", drift_ppm=0.0, starts=[0.0, 100.0], offsets=[0.0, 0.4])
    assert forward.invert(100.2) == 100.0  # never read: snaps to the step
    assert forward.invert(50.0) == 50.0
    assert forward.invert(150.4) == pytest.approx(150.0)
    backward = DeviceClock("a", drift_ppm=0.0, starts=[0.0, 100.0], offsets=[0.0, -0.4])
    assert backward.invert(99.8) == 99.8  # read twice: the earlier instant


@given(
    seed_a=st.integers(0, 2**32),
    seed_b=st.integers(0, 2**32),
    true_delay=st.integers(0, 10_000),
    emit=st.integers(0, 10**9),
)
def test_offsets_propagate_additively(seed_a, seed_b, true_delay, emit):
    # measured latency = true delay + (offset_receiver - offset_sender)
    static = dict(end_ms=2e9, sync_interval_s=1e7, sigma_ntp_ms=0.0,
                  max_drift_ppm=0.0, initial_offset_sigma_ms=40.0)
    sender = drawn("a", seed=seed_a, **static)
    receiver = drawn("b", seed=seed_b, **static)
    emission = sender.read(emit)
    playout = receiver.read(emit + true_delay)
    measured = playout - emission
    expect = true_delay + (receiver.offsets[0] - sender.offsets[0])
    assert abs(measured - expect) <= 1.0  # two independent roundings


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("max_drift_ppm", [2.0, 5e5])
def test_span_bounds_every_local_time(seed, max_drift_ppm):
    """span bounds the local time on a 0.5 ms grid from the join to the end,
    and the grid comes within one step of both bounds (a segment's last
    local time is its limit before the next sync, which no grid point
    reaches)."""
    clock = drawn(seed=seed, join_ms=1000.0, end_ms=21_000.0, sigma_ntp_ms=20.0,
                  sync_interval_s=2.0, max_drift_ppm=max_drift_ppm,
                  initial_offset_sigma_ms=50.0)
    first, last = clock.span(21_000.0)
    local = [clock.local(1000.0 + k * 0.5) for k in range(40_001)]
    slack = 0.5 * (1.0 + max_drift_ppm * 1e-6)  # the local time over one step
    assert first <= min(local) <= first + slack + 1e-6
    assert last - slack - 1e-6 <= max(local) <= last
