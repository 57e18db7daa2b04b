"""Smoke runs of every experiment (the heavy ones via the "smoke" scale).

These assert structural invariants of each experiment's output — the right
panels, series labels, and basic sanity of the numbers — on workloads small
enough for the unit-test suite.  The cheap experiments run at their normal
"quick" scale; the surrogate campaigns (Figures 6–12, Table 1) run at the
dedicated unit-test tier ``scale="smoke"``, which drives every phase of
the real code path on tiny datasets.  Full-size quick/full runs live in
``benchmarks/``.
"""

import math

import pytest

from repro.errors import ExperimentError
from repro.experiments.figures import (
    figure1,
    figure2,
    figure3,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
)
from repro.experiments.tables import table1
from repro.experiments.extras import (
    _can_leave,
    backward_variance,
    long_run,
    restrictions,
)
from repro.osn.api import SocialNetworkAPI
from repro.osn.restrictions import TruncatedKRestriction
from repro.walks.transitions import BidirectionalWalk, SimpleRandomWalk


def test_figure2_panels_and_models():
    result = figure2(scale="quick", seed=1)
    (series_list,) = result.panels.values()
    labels = {s.label for s in series_list}
    assert labels == {"barbell", "cycle", "hypercube", "tree", "barabasi"}
    barabasi = next(s for s in series_list if s.label == "barabasi")
    finite = [y for y in barabasi.y if y != float("inf")]
    assert finite, "BA curve must have finite cost points"


def test_figure3_savings_in_percent():
    result = figure3(scale="quick", seed=1)
    (series_list,) = result.panels.values()
    for series in series_list:
        assert all(y <= 100.0 for y in series.y)
    barbell = next(s for s in series_list if s.label == "barbell")
    assert barbell.y == sorted(barbell.y)  # rises with size


def test_figure5_we_cost_grows_with_diameter():
    result = figure5(scale="quick", seed=2)
    (series_list,) = result.panels.values()
    we = next(s for s in series_list if s.label == "WE")
    srw = next(s for s in series_list if s.label == "SRW")
    # WE's cost at the largest diameter dwarfs its smallest-diameter cost;
    # the monitored SRW stays flat (the convergence-monitor blind spot).
    assert we.y[-1] > 2 * we.y[0]
    assert max(srw.y) < 2 * min(srw.y) + 1e-9


def test_figure1_minimum_positive_after_diameter():
    result = figure1(scale="quick", seed=31)
    (series_list,) = result.panels.values()
    min_series = next(s for s in series_list if s.label == "Min Prob")
    # Early walk: zero minimum (unreached nodes); later: positive.
    assert min_series.y[0] == 0.0
    assert min_series.y[-1] > 0.0


def test_backward_variance_table_rows():
    result = backward_variance(scale="quick", seed=3)
    (table,) = result.tables.values()
    assert len(table.rows) == 4
    by_name = {row[0]: row for row in table.rows}
    plain_std = by_name["UNBIASED-ESTIMATE"][2]
    crawl_std = by_name["crawl-assisted"][2]
    # Heuristic #1 must visibly shrink the spread.
    assert crawl_std < plain_std


def test_long_run_table_shows_ess_collapse():
    result = long_run(scale="quick", seed=4)
    (table,) = result.tables.values()
    by_name = {row[0]: row for row in table.rows}
    short_ess = by_name["many short runs"][2]
    long_ess = by_name["one long run"][2]
    assert long_ess < short_ess  # correlated samples are worth less
    # One long run amortizes burn-in: far cheaper in queries.
    assert by_name["one long run"][4] < by_name["many short runs"][4]


def test_restrictions_skips_a_start_that_cannot_move():
    # At the default seed the second start, node 534, has no mutual edge
    # under the first-8 restriction: the bidirectional walk cannot leave
    # it, so that repetition is skipped and named, not raised.
    result = restrictions(scale="quick")
    (table,) = result.tables.values()
    assert len(table.rows) == 7
    assert all(math.isfinite(row[1]) and math.isfinite(row[2]) for row in table.rows)
    assert result.notes[1:] == ["type3 first-8 / bidirectional: 2 of 3 repetitions ran"]


def test_can_leave_tells_a_stuck_start(path4):
    # 0 sees only 1 under first-1, but 1 sees only 0 too; 2 sees only 1,
    # which does not see it back.
    api = SocialNetworkAPI(path4, restriction=TruncatedKRestriction(1))
    assert _can_leave(api, BidirectionalWalk(), 0)
    assert not _can_leave(api, BidirectionalWalk(), 2)
    assert _can_leave(api, SimpleRandomWalk(), 2)


def test_crawl_baselines_walks_beat_crawls():
    from repro.experiments.extras import crawl_baselines

    result = crawl_baselines(scale="quick", seed=5)
    (table,) = result.tables.values()
    errors = {row[0]: row[1] for row in table.rows}
    crawl_best = min(errors["BFS"], errors["DFS"], errors["snowball(3)"])
    walk_best = min(errors["SRW burn-in"], errors["WE"])
    assert walk_best < crawl_best


def test_scale_validation_rejects_unknown():
    with pytest.raises(ExperimentError, match="scale"):
        figure6(scale="gigantic")


def _assert_error_series(result, panel_count, labels):
    assert len(result.panels) == panel_count
    for series_list in result.panels.values():
        assert {s.label for s in series_list} == labels
        for series in series_list:
            assert series.y, "series must carry at least one point"
            for y in series.y:
                assert math.isfinite(y) and y >= 0.0


def test_figure6_smoke_panels():
    result = figure6(scale="smoke", seed=6)
    assert len(result.panels) == 4
    for panel, series_list in result.panels.items():
        design = "SRW" if "(SRW)" in panel else "MHRW"
        assert {s.label for s in series_list} == {design, "WE"}


def test_figure7_smoke_panels():
    result = figure7(scale="smoke", seed=7)
    _assert_error_series(result, 4, {"SRW", "WE"})


def test_figure8_smoke_panels():
    result = figure8(scale="smoke", seed=8)
    _assert_error_series(result, 4, {"SRW", "WE"})


def test_figure9_smoke_has_all_four_variants():
    result = figure9(scale="smoke", seed=9)
    _assert_error_series(result, 1, {"WE-None", "WE-Crawl", "WE-Weighted", "WE"})


def test_figure10_smoke_checkpoints():
    result = figure10(scale="smoke", seed=10)
    assert len(result.panels) == 4
    for series_list in result.panels.values():
        for series in series_list:
            assert set(series.x) <= {5, 10}


def test_figure11_smoke_two_views_per_size():
    result = figure11(scale="smoke", seed=11)
    assert set(result.panels) == {
        "(a) relative error vs query cost",
        "(b) relative error vs number of samples",
    }
    cost_labels = {s.label for s in result.panels["(a) relative error vs query cost"]}
    assert cost_labels == {"SRW-300", "WE-300", "SRW-500", "WE-500"}


def test_figure12_smoke_distributions_and_table():
    result = figure12(scale="smoke", seed=12)
    pdf_panel = result.panels["PDF (binned)"]
    labels = {s.label for s in pdf_panel}
    assert labels == {"Theo", "SRW", "WE"}
    for series in pdf_panel:
        assert sum(series.y) == pytest.approx(1.0, abs=1e-6)
    cdf_panel = result.panels["CDF (at bin right edges)"]
    for series in cdf_panel:
        assert series.y[-1] == pytest.approx(1.0, abs=1e-6)
        assert series.y == sorted(series.y)
    (table,) = result.tables.values()
    assert [row[0] for row in table.rows] == ["l_inf", "KL"]
    for row in table.rows:
        assert row[1] >= 0.0 and row[2] >= 0.0


def test_table1_carries_table_only():
    result = table1(scale="smoke", seed=12)
    assert not result.panels
    (table,) = result.tables.values()
    assert table.columns == [
        "distance_measure",
        "Dist(Theo, SRW)",
        "Dist(Theo, WE)",
    ]
    assert [row[0] for row in table.rows] == ["l_inf", "KL"]


def test_we_long_run_matches_target_law():
    from repro.experiments.extras import we_long_run

    result = we_long_run(scale="quick", seed=6)
    (table,) = result.tables.values()
    rows = {row[0]: row for row in table.rows}
    # All three schemes stay in the small-bias regime; the corrected long
    # run is not worse than the classical one.
    for label, row in rows.items():
        assert row[1] < 0.05, label  # l_inf
    assert (
        rows["WE one long run"][1] <= rows["one long run (classical)"][1] + 0.01
    )
