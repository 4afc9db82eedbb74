"""Pillar importance scoring, top-k selection, and threshold calibration."""

import math

import numpy as np
import pytest

from pillarconv.errors import (
    EmptyCalibrationPoolError,
    NonFiniteValueError,
    SelectionNotSubsetError,
    SpecMismatchError,
)
from pillarconv.importance import (
    Aggregate,
    ImportanceConfig,
    Measure,
    Selection,
    calibrate_threshold,
    pillar_importance,
    select_threshold,
    select_topk,
    selection_flags,
    topk_count,
)
from pillarconv.tensor import PillarTensor, from_entries


def tensor_with(entries, h=8, w=8, c=None):
    c = c if c is not None else len(entries[0][1])
    return from_entries(h, w, c, entries)


class TestMeasures:
    def test_mean_abs(self):
        t = tensor_with([((0, 0), [3.0, -1.0]), ((1, 1), [0.0, 0.5])])
        scores = pillar_importance(t, ImportanceConfig(Measure.MEAN_ABS))
        assert scores[(0, 0)] == 2.0
        assert scores[(1, 1)] == 0.25

    def test_max_abs(self):
        t = tensor_with([((0, 0), [3.0, -4.0]), ((1, 1), [0.0, 0.5])])
        scores = pillar_importance(t, ImportanceConfig(Measure.MAX_ABS))
        assert scores[(0, 0)] == 4.0
        assert scores[(1, 1)] == 0.5

    def test_default_config_is_mean_abs_identity(self):
        t = tensor_with([((2, 2), [6.0])])
        assert pillar_importance(t)[(2, 2)] == 6.0


class TestAggregates:
    def test_avg_pool_divides_by_active_neighbors_only(self):
        # two adjacent actives: each pools over itself and the other
        t = tensor_with([((2, 2), [4.0]), ((2, 3), [8.0])])
        scores = pillar_importance(
            t, ImportanceConfig(Measure.MEAN_ABS, Aggregate.AVG_POOL)
        )
        assert scores[(2, 2)] == 6.0
        assert scores[(2, 3)] == 6.0

    def test_avg_pool_isolated_pillar_is_its_own_score(self):
        t = tensor_with([((0, 0), [4.0]), ((5, 5), [2.0])])
        scores = pillar_importance(
            t, ImportanceConfig(Measure.MEAN_ABS, Aggregate.AVG_POOL)
        )
        assert scores[(0, 0)] == 4.0
        assert scores[(5, 5)] == 2.0

    def test_max_pool(self):
        t = tensor_with([((2, 2), [4.0]), ((3, 3), [9.0]), ((6, 6), [1.0])])
        scores = pillar_importance(
            t, ImportanceConfig(Measure.MEAN_ABS, Aggregate.MAX_POOL)
        )
        assert scores[(2, 2)] == 9.0
        assert scores[(3, 3)] == 9.0
        assert scores[(6, 6)] == 1.0

    def test_pooling_ignores_inactive_cells(self):
        # a diagonal neighbor two steps away is outside the 3x3 window
        t = tensor_with([((0, 0), [1.0]), ((2, 2), [100.0])])
        scores = pillar_importance(
            t, ImportanceConfig(Measure.MEAN_ABS, Aggregate.MAX_POOL)
        )
        assert scores[(0, 0)] == 1.0


class TestTopkCount:
    @pytest.mark.parametrize("n,t,want", [
        (100, 2.0, 2),
        (100, 0.0, 0),
        (100, -1.0, 0),
        (0, 50.0, 0),
        (2, 50.0, 1),
        (50, 1.0, 1),     # ceil(0.5) = 1
        (3, 100.0, 3),
        (200, 2.0, 4),
        (150, 2.0, 3),    # exact product stays exact
        (1000, 0.1, 1),
        (10, 0.001, 1),   # any positive percentage selects at least one
        (7, 100.0, 7),
        (7, 300.0, 7),    # clamped to n
        (10, 1e308, 10),  # t * n would overflow to inf
    ])
    def test_frozen_values(self, n, t, want):
        assert topk_count(n, t) == want

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [0, 10])
    def test_non_finite_percent_rejected(self, n, t):
        with pytest.raises(NonFiniteValueError):
            topk_count(n, t)

    def test_selections_reject_a_negative_percent(self):
        with pytest.raises(SpecMismatchError):
            select_topk({(0, 0): 1.0}, -1.0)
        with pytest.raises(SpecMismatchError):
            calibrate_threshold([[1.0, 2.0]], -0.5)


class TestSelectTopk:
    def make_scores(self, n, seed=0):
        rng = np.random.Generator(np.random.Philox(key=seed))
        coords = [(i // 8, i % 8) for i in range(n)]
        return dict(zip(coords, rng.uniform(0.1, 10.0, n)))

    def test_selects_the_largest(self):
        scores = {(0, 0): 1.0, (0, 1): 5.0, (1, 0): 3.0, (1, 1): 2.0}
        sel = select_topk(scores, 50.0)
        assert sel.selected == frozenset({(0, 1), (1, 0)})
        # the array form is row-major sorted, not in rank order
        assert sel.rc.tolist() == [[0, 1], [1, 0]]

    def test_zero_percent_selects_nothing(self):
        sel = select_topk(self.make_scores(10), 0.0)
        assert sel.selected == frozenset()

    def test_hundred_percent_selects_all(self):
        scores = self.make_scores(10)
        assert select_topk(scores, 100.0).selected == frozenset(scores)

    def test_ties_break_by_coordinate_order(self):
        scores = {(1, 1): 2.0, (0, 0): 2.0, (2, 2): 2.0, (0, 5): 2.0}
        sel = select_topk(scores, 50.0)
        assert sel.selected == frozenset({(0, 0), (0, 5)})

    def test_insertion_order_is_irrelevant(self):
        scores = self.make_scores(40, seed=3)
        shuffled = dict(sorted(scores.items(), key=lambda kv: kv[1]))
        for t in (5.0, 25.0, 80.0):
            assert select_topk(scores, t).selected == select_topk(shuffled, t).selected

    def test_nesting_in_percentage(self):
        scores = self.make_scores(60, seed=1)
        prev = frozenset()
        for t in (0.0, 5.0, 10.0, 30.0, 60.0, 100.0):
            cur = select_topk(scores, t).selected
            assert prev <= cur
            prev = cur

    def test_scale_invariance(self):
        scores = self.make_scores(30, seed=2)
        scaled = {c: 7.5 * v for c, v in scores.items()}
        for t in (10.0, 40.0, 90.0):
            assert select_topk(scores, t).selected == select_topk(scaled, t).selected


class TestSelectThreshold:
    def test_inclusive_at_theta(self):
        scores = {(0, 0): 1.0, (0, 1): 2.0, (0, 2): 3.0}
        sel = select_threshold(scores, 2.0)
        assert sel.selected == frozenset({(0, 1), (0, 2)})

    def test_infinite_theta_selects_nothing(self):
        assert select_threshold({(0, 0): 5.0}, math.inf).selected == frozenset()

    def test_nan_theta_rejected(self):
        # every comparison with NaN is false, so it would select nothing without a word
        with pytest.raises(NonFiniteValueError):
            select_threshold({(0, 0): 5.0}, math.nan)


class TestCalibrateThreshold:
    def test_kth_largest_of_pool(self):
        pool = [list(range(1, 101))]
        assert calibrate_threshold(pool, 2.0) == 99

    def test_two_value_pool(self):
        assert calibrate_threshold([[10.0, 20.0]], 50.0) == 20.0

    def test_pooling_across_sets(self):
        # pooled {1..4}, t=50% -> k=2 -> second largest
        assert calibrate_threshold([[1.0, 3.0], [2.0, 4.0]], 50.0) == 3.0

    def test_zero_percent_gives_infinity(self):
        assert calibrate_threshold([[1.0, 2.0]], 0.0) == math.inf

    def test_full_percent_gives_pool_min(self):
        assert calibrate_threshold([[4.0, 1.0, 3.0]], 100.0) == 1.0

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyCalibrationPoolError):
            calibrate_threshold([[], []], 10.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NonFiniteValueError):
            calibrate_threshold([[1.0, 2.0], [bad]], 50.0)

    def test_threshold_matches_topk_on_the_calibration_set(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        for t in (1.0, 5.0, 20.0, 50.0):
            vals = list(rng.uniform(0.0, 1.0, 200))
            theta = calibrate_threshold([vals], t)
            picked = sum(1 for v in vals if v >= theta)
            assert picked == topk_count(len(vals), t)


class TestSelectionFlags:
    def test_flags_align_with_entry_order(self):
        t = tensor_with([((0, 0), [1.0]), ((1, 1), [2.0]), ((2, 2), [3.0])])
        sel = select_topk(pillar_importance(t), 30.0)
        flags = selection_flags(t, sel)
        assert flags.dtype == bool
        assert flags.tolist() == [False, False, True]

    def test_selection_outside_active_set_rejected(self):
        t = tensor_with([((0, 0), [1.0])])
        with pytest.raises(SelectionNotSubsetError):
            selection_flags(t, Selection(frozenset({(5, 5)})))

    def test_keys_use_the_grid_width(self):
        # on a 2**32-column key grid (0, 2**32) and (1, 0) share a key
        t = PillarTensor(4, 2**34, 1, [(1, 0)], np.zeros((1, 1), dtype=np.float32))
        with pytest.raises(SelectionNotSubsetError):
            selection_flags(t, Selection([(0, 2**32)]))

    def test_off_grid_selection_rejected(self):
        t = tensor_with([((1, 0), [1.0])], h=4, w=4)
        with pytest.raises(SelectionNotSubsetError):
            selection_flags(t, Selection([(0, 2**32)]))
        with pytest.raises(SelectionNotSubsetError):
            selection_flags(t, Selection([(0, 4)]))
