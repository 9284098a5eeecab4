"""The standard-normal quantile the GLRT takes from statistics.NormalDist,
checked through the detector functions that call it."""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridloop.detect import glrt_detect, glrt_sweep

# Reference quantiles (Wichura AS241 to full double precision).
REFERENCE = [
    (0.5, 0.0),
    (0.975, 1.959963984540054),
    (0.025, -1.959963984540054),
    (0.99, 2.3263478740408408),
    (0.9986501019683699, 3.0),
    (1e-9, -5.997807015007575),
]


def _upper_quantile(p_fa):
    # at sigma 1 and window 1 the GLRT threshold is Q^{-1}(p_fa) itself
    return float(glrt_detect(np.zeros(1), 1.0, 1, p_fa).thresholds[0])


@pytest.mark.parametrize("p,expected", REFERENCE)
def test_reference_quantiles(p, expected):
    assert _upper_quantile(p) == pytest.approx(-expected, abs=1e-12)


def test_upper_tail_inverse():
    # Q(2.0) = 0.02275013194817921, so the inverse survival at that mass is 2
    assert _upper_quantile(0.02275013194817921) == pytest.approx(2.0, abs=1e-12)
    assert _upper_quantile(0.5) == 0.0


def test_symmetry():
    for p in (0.01, 0.2, 0.45):
        assert _upper_quantile(p) == pytest.approx(-_upper_quantile(1 - p), abs=1e-12)
        # the exact reflection, not inv_cdf(1 - p), which cancels for tiny p
        assert _upper_quantile(p) == -NormalDist().inv_cdf(p)


def test_endpoints_are_infinite():
    # p_fa 0 never alarms and 1 always does, however far out the window mean lies
    x = np.array([1e300, -1e300, 0.0])
    p_fas, decisions = glrt_sweep(x, sigma=1.0, window=1, n_points=2)
    assert p_fas.tolist() == [0.0, 1.0]
    assert decisions.tolist() == [[0, 0, 0], [1, 1, 1]]


def test_out_of_range_rejected():
    for bad in (-0.1, 1.1, np.nan, 0.0, 1.0):
        with pytest.raises(ValueError, match="p_fa"):
            glrt_detect(np.zeros(1), 1.0, 1, bad)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_bulk_quantiles_finite(p):
    q = _upper_quantile(p)
    assert np.isfinite(q)
    assert abs(q) < 5.0  # |Q^{-1}(1e-6)| ~ 4.7534


@given(st.lists(st.floats(min_value=1e-5, max_value=1 - 1e-5), min_size=2, max_size=10))
def test_monotone(ps):
    qs = [_upper_quantile(p) for p in sorted(ps)]
    assert np.all(np.diff(qs) <= 0)
