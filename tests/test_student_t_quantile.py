"""Pin the Student-t quantile behind every confidence interval.

``repro.core.metrics._t_quantile`` calls ``scipy.special.stdtrit`` so that
computing a confidence interval does not import ``scipy.stats``.  It must
stay bit-equal to the ``stats.t.ppf`` form every table was produced with,
on every supported SciPy.
"""

from __future__ import annotations

import pytest
from scipy import stats

from repro.core.metrics import _t_quantile

CONFIDENCES = [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999]
DEGREES_OF_FREEDOM = [*range(1, 201), 250, 500, 999, 1000, 2500, 5000, 10**5]


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_t_quantile_is_bit_equal_to_stats_t_ppf(confidence):
    mismatches = [
        (df, _t_quantile(confidence, df), float(stats.t.ppf(0.5 + confidence / 2.0, df)))
        for df in DEGREES_OF_FREEDOM
        if _t_quantile(confidence, df) != float(stats.t.ppf(0.5 + confidence / 2.0, df))
    ]
    assert mismatches == []
