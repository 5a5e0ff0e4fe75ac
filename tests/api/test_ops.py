import pytest

from repro import Compute


@pytest.mark.parametrize("us", [-5.0, float("nan"), float("inf"), float("-inf")])
def test_compute_refuses_a_negative_or_non_finite_time(us):
    # nan would cost nothing and inf would run until max_events.
    with pytest.raises(ValueError, match="finite"):
        Compute(us)
