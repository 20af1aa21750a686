"""Figure 6 — Bell-Canada, varying the extent of a geographic disruption.

Paper setting: 4 demand pairs of 10 units; bi-variate Gaussian disruption
centred at the network barycentre; growing variance destroys a growing
fraction of the network.  Panels: (a) total repairs, (b) percentage of
satisfied demand.

Expected shape (paper): the number of destroyed elements (ALL) grows with
the variance; every algorithm's repairs grow with it but stay well below
ALL; ISP stays closest to OPT and loses no demand.
"""

from __future__ import annotations

import pytest

from bench_utils import BENCH_CACHE, BENCH_JOBS, FULL_SCALE, print_figure, timed
from repro.api.service import RecoveryService

COLUMNS = ["variance", "algorithm", "total_repairs", "satisfied_pct", "broken_elements"]


@timed
def run_figure6():
    if FULL_SCALE:
        scale = dict(sweep_values=(10, 25, 50, 80, 120, 160), runs=20, opt_time_limit=None)
    else:
        scale = dict(sweep_values=(10, 80, 160), runs=2, opt_time_limit=90.0)
    return RecoveryService().sweep(
        "figure6", seed=17, jobs=BENCH_JOBS, cache_dir=BENCH_CACHE, **scale
    )


def test_figure6_disruption_extent(benchmark):
    result = benchmark.pedantic(run_figure6, rounds=1, iterations=1)
    print_figure(
        "Figure 6 — Bell-Canada, varying the extent of destruction (4 pairs, 10 units)",
        result.rows,
        COLUMNS,
    )

    repairs = result.series("total_repairs")
    satisfied = result.series("satisfied_pct")
    destroyed = result.series("broken_elements")
    variances = sorted(repairs["ISP"])

    # Wider disruptions destroy more elements.
    assert destroyed["ALL"][variances[-1]] >= destroyed["ALL"][variances[0]]

    for variance in variances:
        assert repairs["OPT"][variance] <= repairs["ISP"][variance] + 1e-6
        assert repairs["ISP"][variance] <= repairs["ALL"][variance] + 1e-6
        assert satisfied["ISP"][variance] == pytest.approx(100.0, abs=1e-3)
        assert satisfied["OPT"][variance] == pytest.approx(100.0, abs=1e-3)
