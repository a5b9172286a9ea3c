"""Dominance criterion, inequality measures, concentration index, chi-square."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankmetrics import (
    DominanceResult,
    Indicator,
    IndicatorRecord,
    Rank,
    bottom_top_ratio,
    chi_square_independence,
    chi_square_upper_tail,
    concentration_index,
    concentration_rows,
    dominance_counts,
    gini,
    sequence_criterion,
    top_distribution,
    top_scientists,
    weighted_uda_gini,
)

from conftest import single_author_corpus


# ---------------------------------------------------------------------------
# Sequence criterion

def test_maximum_differentiation_realized():
    res = sequence_criterion([10, 9], [1, 2])
    assert res.r_diff_a == 0
    assert res.winner == "A"
    assert res.r_diff_b == 4  # = n_a * n_b


def test_single_values():
    res = sequence_criterion([1], [2])
    assert res.r_diff_a == 1
    assert res.r_diff_b == 0
    assert res.r_diff_a + res.r_diff_b == 1
    assert res.winner == "B"


def test_tied_groups():
    res = sequence_criterion([5], [5])
    assert res.r_diff_a == pytest.approx(0.5)
    assert res.r_diff_b == pytest.approx(0.5)
    assert res.winner is None


def test_empty_group_rejected():
    with pytest.raises(ValueError):
        sequence_criterion([], [1])


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=40),
    st.lists(st.integers(0, 6), min_size=1, max_size=40),
)
def test_rank_sum_identity(a, b):
    res = sequence_criterion(a, b)
    assert res.r_diff_a + res.r_diff_b == pytest.approx(len(a) * len(b), abs=1e-9)
    assert res.r_diff_a >= -1e-9 and res.r_diff_b >= -1e-9


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=25),
    st.lists(st.integers(0, 8), min_size=1, max_size=25),
)
def test_winner_invariant_under_monotone_transform(a, b):
    plain = sequence_criterion(a, b)
    transformed = sequence_criterion(
        [float(x) ** 3 + 1 for x in a], [float(x) ** 3 + 1 for x in b]
    )
    assert plain.winner == transformed.winner


# ---------------------------------------------------------------------------
# Gini

def _gini_brute(values):
    # sum over pairs / (2 n^2 mean), with n * mean as the total: a mean of
    # subnormal values can round to 0 where their total does not
    x = np.asarray(values, dtype=float)
    n = x.size
    total = x.sum()
    if total == 0:
        return 0.0
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * total))


def test_gini_all_equal_is_zero():
    assert gini([3.5] * 7) == 0.0
    assert gini([0.0]) == 0.0


def test_gini_two_values():
    assert gini([0, 1]) == pytest.approx(0.5)


def test_gini_single_spike():
    values = [0.0] * 99 + [1.0]
    assert gini(values) == 0.99  # (n-1)/n exactly


def test_gini_negative_rejected():
    with pytest.raises(ValueError):
        gini([1.0, -0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gini_rejects_non_finite(bad):
    # a NaN or an infinity must not read as perfect equality (0.0)
    with pytest.raises(ValueError, match="gini requires finite values"):
        gini([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        gini(np.array([1.0, 2.0, bad]))


def test_gini_empty_rejected():
    with pytest.raises(ValueError):
        gini([])


@settings(max_examples=300)
@given(st.lists(st.floats(0, 1e4, allow_nan=False), min_size=1, max_size=120))
def test_gini_matches_brute_force(values):
    assert gini(values) == pytest.approx(_gini_brute(values), abs=1e-10)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 10_000), min_size=2, max_size=50),
    st.floats(0.01, 1000),
)
def test_gini_scale_invariant(values, c):
    assert gini([c * v for v in values]) == pytest.approx(gini(values), abs=1e-9)


def test_gini_translation_sensitive():
    values = [0.0, 1.0, 2.0]
    assert gini([v + 10 for v in values]) < gini(values)


# ---------------------------------------------------------------------------
# Weighted UDA Gini

def test_weighted_gini_single_field_identity():
    assert weighted_uda_gini([(0.42, 17)]) == pytest.approx(0.42)


def test_weighted_gini_example():
    assert weighted_uda_gini([(0.5, 10), (0.7, 30)]) == pytest.approx(0.65)


def test_weighted_gini_equal_weights_is_plain_mean():
    assert weighted_uda_gini([(0.2, 5), (0.6, 5)]) == pytest.approx(0.4)


def test_weighted_gini_bounds():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pairs = [(rng.random(), int(rng.integers(1, 40))) for _ in range(int(rng.integers(1, 8)))]
        value = weighted_uda_gini(pairs)
        ginis = [g for g, _ in pairs]
        assert min(ginis) - 1e-12 <= value <= max(ginis) + 1e-12


def test_weighted_gini_rejects_empty_and_bad_weights():
    with pytest.raises(ValueError):
        weighted_uda_gini([])
    with pytest.raises(ValueError):
        weighted_uda_gini([(0.5, 0)])


# ---------------------------------------------------------------------------
# Bottom/top ratio

def test_ratio_uniform_population_is_one():
    assert bottom_top_ratio([2.0] * 10) == pytest.approx(1.0)


def test_ratio_all_zero_is_undefined():
    assert bottom_top_ratio([0.0, 0.0, 0.0]) is None


def test_ratio_single_spike_is_zero():
    assert bottom_top_ratio([0, 0, 0, 0, 10]) == 0.0


def test_ratio_block_sizes():
    # n=5: top block 1, bottom block 2
    assert bottom_top_ratio([1, 1, 4, 4, 10]) == pytest.approx(1.0 / 10.0)


def test_ratio_bounds_property():
    rng = np.random.default_rng(9)
    for _ in range(200):
        values = rng.integers(0, 20, size=int(rng.integers(1, 50))).astype(float)
        ratio = bottom_top_ratio(values)
        if ratio is not None:
            assert 0.0 <= ratio <= 1.0 + 1e-12
            if ratio == pytest.approx(1.0):
                k_top = max(1, int(0.2 * len(values)))
                k_bot = max(1, int(0.4 * len(values)))
                ordered = np.sort(values)
                assert ordered[:k_bot].mean() == pytest.approx(ordered[-k_top:].mean())


@pytest.mark.parametrize(
    "values", [[math.nan, 1, 2, 3, 4], [1, 2, math.nan, 3, 4], [1, 2, 3, math.inf], [-math.inf, 1.0]]
)
def test_ratio_rejects_non_finite(values):
    # wherever a NaN sits, it fails rather than giving nan or a number that depends on its place
    with pytest.raises(ValueError, match="bottom_top_ratio requires finite values"):
        bottom_top_ratio(values)


def test_ratio_validates_input():
    with pytest.raises(ValueError):
        bottom_top_ratio([])
    with pytest.raises(ValueError):
        bottom_top_ratio([-1.0, 2.0])


# ---------------------------------------------------------------------------
# Concentration index

def test_concentration_index_reference_values():
    assert concentration_index(39.1, 37.2) == pytest.approx(1.05, abs=0.01)
    assert concentration_index(36.8, 35.1) == pytest.approx(1.05, abs=0.01)
    assert concentration_index(25.0, 25.0) == 1.0


def test_concentration_index_zero_staff_rejected():
    with pytest.raises(ValueError):
        concentration_index(10.0, 0.0)


# ---------------------------------------------------------------------------
# Chi-square

def test_proportional_table_gives_zero():
    res = chi_square_independence([[10, 20, 40], [5, 10, 20]])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_two_by_two_example():
    res = chi_square_independence([[10, 20], [20, 10]])
    assert res.statistic == pytest.approx(20.0 / 3.0, abs=1e-12)
    assert res.degrees_of_freedom == 1


def test_statistic_scales_linearly():
    rng = np.random.default_rng(23)
    for _ in range(50):
        table = rng.integers(1, 30, size=(2, 3))
        k = int(rng.integers(2, 9))
        base = chi_square_independence(table)
        scaled = chi_square_independence(k * table)
        assert scaled.statistic == pytest.approx(k * base.statistic, abs=1e-9)


def test_zero_marginal_rejected():
    with pytest.raises(ValueError):
        chi_square_independence([[0, 0], [1, 2]])
    with pytest.raises(ValueError):
        chi_square_independence([[0, 1], [0, 2]])


def test_upper_tail_against_quadrature():
    from scipy import integrate
    import math

    def density(x, df):
        return x ** (df / 2.0 - 1.0) * math.exp(-x / 2.0) / (
            2.0 ** (df / 2.0) * math.gamma(df / 2.0)
        )

    for statistic, df in [(3.841, 1), (6.635, 1), (1.0, 2), (7.81, 3), (15.5, 8), (0.5, 5)]:
        expected, _ = integrate.quad(density, statistic, np.inf, args=(df,))
        assert chi_square_upper_tail(statistic, df) == pytest.approx(expected, abs=1e-8)


def test_upper_tail_edge_cases():
    assert chi_square_upper_tail(0.0, 1) == 1.0
    assert chi_square_upper_tail(1e6, 1) == 0.0
    with pytest.raises(ValueError):
        chi_square_upper_tail(-1.0, 1)
    with pytest.raises(ValueError):
        chi_square_upper_tail(1.0, 0)


# ---------------------------------------------------------------------------
# Corpus-level wrappers

def _two_rank_corpus():
    """Two SDSs in one UDA; full professors dominate S1, assistants S2."""
    entries = []
    values = {}
    for i, v in enumerate([9.0, 8.0, 7.0]):
        entries.append((f"f1{i}", "S1", "U1", "FULL", []))
        values[f"f1{i}"] = v
    for i, v in enumerate([2.0, 1.0]):
        entries.append((f"a1{i}", "S1", "U1", "ASSISTANT", []))
        values[f"a1{i}"] = v
    for i, v in enumerate([1.0, 2.0]):
        entries.append((f"f2{i}", "S2", "U1", "FULL", []))
        values[f"f2{i}"] = v
    for i, v in enumerate([8.0, 9.0]):
        entries.append((f"a2{i}", "S2", "U1", "ASSISTANT", []))
        values[f"a2{i}"] = v
    corpus = single_author_corpus(entries)
    records = {
        sid: IndicatorRecord(sid, 1 if v > 0 else 0, v or None, v) for sid, v in values.items()
    }
    return corpus, records


def test_dominance_counts():
    corpus, records = _two_rank_corpus()
    counts = dominance_counts(records, corpus, Indicator.FSS, Rank.FULL, Rank.ASSISTANT)
    assert counts.per_uda["U1"] == (1, 2)  # assistants win S2 only
    assert counts.total == (1, 2)
    assert counts.sds_results["S1"].winner is Rank.FULL
    assert counts.sds_results["S2"].winner is Rank.ASSISTANT


def test_dominance_excludes_sds_with_empty_group():
    entries = [("f", "S1", "U1", "FULL", []), ("g", "S2", "U1", "FULL", [])]
    corpus = single_author_corpus(entries)
    records = {
        "f": IndicatorRecord("f", 1, 1.0, 1.0),
        "g": IndicatorRecord("g", 1, 1.0, 1.0),
    }
    counts = dominance_counts(records, corpus, Indicator.FSS)
    assert counts.per_uda == {}
    assert counts.excluded_sds == 2


def test_concentration_rows_weighting():
    corpus, records = _two_rank_corpus()
    rows = concentration_rows(records, corpus, Indicator.FSS)
    full = rows[("U1", Rank.FULL)]
    g1 = gini([9.0, 8.0, 7.0])
    g2 = gini([1.0, 2.0])
    assert full.gini == pytest.approx((3 * g1 + 2 * g2) / 5)
    assert full.bottom_top_ratio is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_concentration_rows_rejects_non_finite(bad):
    corpus, records = _two_rank_corpus()
    records["a21"] = IndicatorRecord("a21", 1, 9.0, bad)
    with pytest.raises(ValueError, match="concentration_rows requires finite values"):
        concentration_rows(records, corpus, Indicator.FSS)
    assert concentration_rows(records, corpus, Indicator.QI)[("U1", Rank.ASSISTANT)].gini > 0


def test_dominance_result_by_keyword():
    res = DominanceResult(
        group_a=Rank.FULL, group_b=Rank.ASSISTANT, r_eff_a=7.0, r_max_a=9.0, r_eff_b=8.0,
        r_max_b=9.0, sds_code="S1",
    )
    assert (res.r_diff_a, res.r_diff_b, res.winner) == (2.0, 1.0, Rank.ASSISTANT)
    tie = DominanceResult(group_a="A", group_b="B", r_eff_a=3.5, r_max_a=5.0, r_eff_b=3.5, r_max_b=5.0)
    assert (tie.r_diff_a, tie.r_diff_b, tie.winner, tie.sds_code) == (1.5, 1.5, None, None)
    assert sequence_criterion([1.0], [2.0], "A", "B", "S1") == DominanceResult(
        group_a="A", group_b="B", r_eff_a=1.0, r_max_a=2.0, r_eff_b=2.0, r_max_b=2.0, sds_code="S1"
    )


def test_top_distribution_shares_and_index():
    corpus, records = _two_rank_corpus()
    flags = top_scientists(records, Indicator.FSS, corpus, 0.4)
    dist = top_distribution(flags, corpus, Indicator.FSS)
    # S1 flags its best 2 of 5 (both FULL); S2 flags its best 1 of 4 (ASSISTANT)
    assert dist.cell("U1", Rank.FULL).top_count == 2
    assert dist.cell("U1", Rank.ASSISTANT).top_count == 1
    assert dist.top_share("U1", Rank.FULL) == pytest.approx(100.0 * 2 / 3)
    staff_share = 100.0 * 5 / 9
    assert dist.index("U1", Rank.FULL) == pytest.approx((100.0 * 2 / 3) / staff_share)
    assert dist.chi_square_by_uda["U1"] is not None
    assert dist.chi_square_overall is not None
