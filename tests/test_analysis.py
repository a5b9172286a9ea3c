"""Dominance criterion, inequality measures, concentration index, chi-square."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rankmetrics import (
    Indicator,
    IndicatorRecord,
    Rank,
    build_baselines,
    chi_square_independence,
    chi_square_upper_tail,
    compute_indicators,
    concentration_index,
    concentration_rows,
    dominance_counts,
    read_indicators,
    top_distribution,
    top_scientists,
    write_indicators,
)
from rankmetrics.synth import SynthConfig, generate
from rankmetrics.tables import build_concentration_table, format_table

from conftest import (
    block_table, indicator_table, one_block_rows, one_block_table, pair_results, single_author_corpus,
)
from oracle import reference_bottom_top_ratio, reference_gini, weighted_uda_gini


# ---------------------------------------------------------------------------
# Sequence criterion: one field per case, FULL as group a, ASSISTANT as group b

def test_maximum_differentiation_realized():
    res, = pair_results([([10, 9], [1, 2])])
    assert res.r_diff_a == 0
    assert res.r_diff_b == 4  # = n_a * n_b
    assert not res.b_wins


def test_single_values():
    res, = pair_results([([1], [2])])
    assert res.r_diff_a == 1
    assert res.r_diff_b == 0
    assert res.r_diff_a + res.r_diff_b == 1
    assert res.b_wins


def test_tied_groups():
    res, = pair_results([([5], [5])])
    assert res.r_diff_a == pytest.approx(0.5)
    assert res.r_diff_b == pytest.approx(0.5)
    assert not res.b_wins  # a tie is no win


def test_empty_group_is_excluded():
    assert pair_results([([], [1]), ([1], []), ([1], [2])])[:2] == [None, None]


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=40),
    st.lists(st.integers(0, 6), min_size=1, max_size=40),
)
def test_rank_sum_identity(a, b):
    res, = pair_results([(a, b)])
    assert res.r_diff_a + res.r_diff_b == pytest.approx(len(a) * len(b), abs=1e-9)
    assert res.r_diff_a >= -1e-9 and res.r_diff_b >= -1e-9


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=25),
    st.lists(st.integers(0, 8), min_size=1, max_size=25),
)
def test_winner_invariant_under_monotone_transform(a, b):
    cubed = [float(x) ** 3 + 1 for x in a], [float(x) ** 3 + 1 for x in b]
    plain, transformed = pair_results([(a, b), cubed])
    assert plain.b_wins == transformed.b_wins


# ---------------------------------------------------------------------------
# Gini: one (UDA, SDS, rank) block per case, each cell's Gini weighted over one field

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
    assert [row.gini for row in one_block_rows([[3.5] * 7, [0.0]])] == [0.0, 0.0]


def test_gini_rounding_below_zero_is_clamped():
    # six equal values and one a unit in the last place above: the sorted
    # formula rounds to a tiny negative Gini, which must read 0.0, not -0.000
    values = [12.3] * 6 + [math.nextafter(12.3, math.inf)]
    xs = np.sort(values)
    raw = ((2.0 * np.arange(1, 8) - 8.0) * xs).sum() / (7 * xs.sum())
    assert raw < 0.0
    corpus, table = one_block_table([values])
    grid = concentration_rows(table, corpus, Indicator.FSS)
    gini = grid.cell("U00000", Rank.FULL).gini
    assert gini == 0.0 and math.copysign(1.0, gini) == 1.0
    t9 = build_concentration_table(grid)
    assert t9.rows[0][:2] == ["U00000", gini]
    assert format_table(t9).splitlines()[-1].split()[:2] == ["U00000", "0.000"]


def test_gini_two_values():
    row, = one_block_rows([[0, 1]])
    assert row.gini == pytest.approx(0.5)


def test_gini_single_spike():
    row, = one_block_rows([[0.0] * 99 + [1.0]])
    assert row.gini == weighted_uda_gini([(0.99, 100)]) == 0.99  # (n-1)/n exactly


# magnitudes from subnormal to 1e300, so that n * sum stays finite for n < 60
GINI_VALUES = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1.0), st.floats(0.0, 1e300))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(GINI_VALUES, min_size=1, max_size=59), min_size=1, max_size=6))
@example([[0.0, 1.0], [0.0] * 58 + [1e300], [5e-324, 0.0, 0.0]])
def test_gini_is_at_most_n_minus_one_over_n(cases):
    # sum (2i - n - 1) x_(i) <= (n - 1) sum for sorted non-negative values,
    # so the Gini needs no upper clamp; the mass on one member reaches the bound
    for values, row in zip(cases, one_block_rows(cases)):
        n = len(values)
        assert 0.0 <= row.gini <= (n - 1) / n + 1e-12, values


def test_signed_zero_fss_in_either_row_order_gives_the_same_t9(tmp_path):
    # -0.0 == 0.0, so a sort may put either first; T9 must not tell which
    path = tmp_path / "indicators.csv"
    path.write_text("scientist_id,n_p,qi,fss\n"
                    "neg,1,0.5,-0.0\npos,1,0.5,0.0\ntwo,1,0.5,2.0\nfive,1,0.5,5.0\n"  # a block with spread
                    "idle-neg,0,,-0.0\nidle-pos,0,,0.0\n")  # an all-zero block
    cells = []
    for first, second in (("neg", "pos"), ("pos", "neg")):
        corpus = single_author_corpus([
            (first, "S1", "U1", "FULL", []), (second, "S1", "U1", "FULL", []),
            ("two", "S1", "U1", "FULL", []), ("five", "S1", "U1", "FULL", []),
            (f"idle-{first}", "S2", "U1", "ASSOCIATE", []), (f"idle-{second}", "S2", "U1", "ASSOCIATE", []),
        ])
        table = read_indicators(path, corpus)
        assert np.signbit(table.fss).tolist() == [sid.endswith("neg") for sid in corpus.scientist_ids]
        grid = concentration_rows(table, corpus, Indicator.FSS)
        cells.append(repr(list(grid.cells.items())))  # repr tells -0.0 from 0.0
    assert cells[0] == cells[1]
    assert grid.cell("U1", Rank.FULL).gini > 0 and grid.cell("U1", Rank.ASSOCIATE).gini == 0.0


def test_gini_negative_rejected():
    with pytest.raises(ValueError, match="concentration_rows requires non-negative values"):
        one_block_rows([[1.0, 2.0], [1.0, -0.1]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gini_rejects_non_finite(bad):
    # a NaN or an infinity must not read as perfect equality (0.0)
    with pytest.raises(ValueError, match="concentration_rows requires finite values"):
        one_block_rows([[bad, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        one_block_rows([[1.0, 2.0], [1.0, 2.0, bad]])


def test_gini_empty_block_has_no_row():
    # a field whose members all lack the indicator enters no cell
    corpus, table = one_block_table([[math.nan, math.nan], [1.0, 2.0]])
    grid = concentration_rows(table, corpus, Indicator.QI)
    assert list(grid.cells) == [("U00000", Rank.ASSOCIATE)]
    empty = grid.cell("U00000", Rank.FULL)
    assert empty.headcount == 0 and empty.gini is None and empty.bottom_top_ratio is None


@settings(max_examples=300)
@given(st.lists(st.floats(0, 1e4, allow_nan=False), min_size=1, max_size=120))
def test_gini_matches_brute_force(values):
    row, = one_block_rows([values])
    assert row.gini == pytest.approx(_gini_brute(values), abs=1e-10)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 10_000), min_size=2, max_size=50),
    st.floats(0.01, 1000),
)
def test_gini_scale_invariant(values, c):
    scaled, plain = one_block_rows([[c * v for v in values], values])
    assert scaled.gini == pytest.approx(plain.gini, abs=1e-9)


def test_gini_translation_sensitive():
    values = [0.0, 1.0, 2.0]
    shifted, plain = one_block_rows([[v + 10 for v in values], values])
    assert shifted.gini < plain.gini


def test_concentration_rows_rejects_overflowing_block():
    # 2 * (1e308 + 1.5e308) overflows; the kernel read such a block as Gini 0.0
    for blocks in ([[1.0, 2.0], [1e308, 1.5e308]], [[1.0, 2.0], [1e308, 1.5e308], [1.7e308] * 3]):
        corpus, table = one_block_table(blocks)
        for _ in range(2):  # a build that raises keeps nothing
            with pytest.raises(ValueError, match="concentration_rows: values too large in "
                                                 r"SDS 'S00001', rank ASSOCIATE: 2 \* their sum"):
                concentration_rows(table, corpus, Indicator.FSS)
    # ten times smaller, every intermediate value is finite and the Gini is exact
    row, = one_block_rows([[1e307, 1.5e307]])
    assert row.gini == weighted_uda_gini([(reference_gini([1e307, 1.5e307]), 2)])
    assert row.gini == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Weighted UDA Gini and ratio: several fields in one (UDA, rank) cell

def _cell_row(fields, bottom_fraction=0.4, top_fraction=0.2):
    """The FSS :class:`SpreadCell` of one (UDA, rank) cell of one SDS per list of values."""
    corpus, table = block_table([("U1", Rank.FULL, f"S{i:05d}", values) for i, values in enumerate(fields)])
    grid = concentration_rows(table, corpus, Indicator.FSS, bottom_fraction, top_fraction)
    return grid.cell("U1", Rank.FULL)


def test_weighted_gini_single_field_identity():
    values = [float(v) for v in range(17)]
    assert _cell_row([values]).gini == pytest.approx(reference_gini(values))


def test_weighted_gini_example():
    small, large = [0.0] * 9 + [1.0], [1.0, 2.0, 3.0] * 10
    g1, g2 = reference_gini(small), reference_gini(large)
    row = _cell_row([small, large])
    assert row.gini == weighted_uda_gini([(g1, 10), (g2, 30)]) == pytest.approx((10 * g1 + 30 * g2) / 40)


def test_weighted_gini_equal_weights_is_plain_mean():
    first, second = [0.0, 0.0, 1.0, 2.0, 5.0], [1.0, 1.0, 1.0, 2.0, 4.0]
    expected = (reference_gini(first) + reference_gini(second)) / 2
    assert _cell_row([first, second]).gini == pytest.approx(expected)


def test_weighted_gini_bounds():
    rng = np.random.default_rng(3)
    for _ in range(50):
        fields = [rng.integers(0, 20, size=int(rng.integers(1, 40))).astype(float).tolist()
                  for _ in range(int(rng.integers(1, 8)))]
        ginis = [reference_gini(values) for values in fields]
        assert min(ginis) - 1e-12 <= _cell_row(fields).gini <= max(ginis) + 1e-12


def test_weighted_ratio_leaves_out_undefined_fields():
    # the all-zero fields have no ratio; the cell's ratio is that of the other field alone
    defined = [1.0, 1.0, 4.0, 4.0, 10.0]
    row = _cell_row([[0.0] * 3, defined, [0.0] * 8])
    ratio = reference_bottom_top_ratio(defined)
    assert row.bottom_top_ratio == weighted_uda_gini([(ratio, 5)]) == pytest.approx(ratio)
    assert _cell_row([[0.0] * 3, [0.0] * 8]).bottom_top_ratio is None
    # two defined fields are weighted by headcount
    other = [2.0] * 7
    row = _cell_row([defined, [0.0] * 4, other])
    assert row.bottom_top_ratio == weighted_uda_gini([(ratio, 5), (1.0, 7)]) == pytest.approx((5 * ratio + 7) / 12)


# ---------------------------------------------------------------------------
# Bottom/top ratio: one (UDA, SDS, rank) block per case

def test_ratio_uniform_population_is_one():
    row, = one_block_rows([[2.0] * 10])
    assert row.bottom_top_ratio == pytest.approx(1.0)


def test_ratio_all_zero_is_undefined():
    row, = one_block_rows([[0.0, 0.0, 0.0]])
    assert row.bottom_top_ratio is None


def test_ratio_single_spike_is_zero():
    row, = one_block_rows([[0, 0, 0, 0, 10]])
    assert row.bottom_top_ratio == 0.0


def test_ratio_block_sizes():
    # n=5: top block 1, bottom block 2
    row, = one_block_rows([[1, 1, 4, 4, 10]])
    assert row.bottom_top_ratio == pytest.approx(1.0 / 10.0)


def test_ratio_bounds_property():
    rng = np.random.default_rng(9)
    cases = [rng.integers(0, 20, size=int(rng.integers(1, 50))).astype(float) for _ in range(200)]
    for values, row in zip(cases, one_block_rows(cases)):
        ratio = row.bottom_top_ratio
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
    with pytest.raises(ValueError, match="concentration_rows requires finite values"):
        one_block_rows([values])


def test_ratio_validates_input():
    with pytest.raises(ValueError, match="non-negative"):
        one_block_rows([[-1.0, 2.0]])
    for fractions in ((0.0, 0.2), (0.4, 1.0)):
        with pytest.raises(ValueError, match=r"fractions must be in \(0, 1\)"):
            one_block_rows([[1.0, 2.0]], *fractions)


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


@pytest.mark.parametrize("df", range(1, 41))
def test_upper_tail_against_gammaincc(df):
    from scipy.special import gammaincc

    for statistic in (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.841, 6.635, 10.0, 30.0, 100.0,
                      300.0, 700.0, 1400.0):
        expected = gammaincc(df / 2.0, statistic / 2.0)
        assert chi_square_upper_tail(statistic, df) == pytest.approx(expected, rel=1e-12, abs=0)


def test_upper_tail_edge_cases():
    assert chi_square_upper_tail(0.0, 1) == 1.0
    assert chi_square_upper_tail(1e6, 1) == 0.0
    assert [chi_square_upper_tail(math.inf, df) for df in (1, 2, 3)] == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        chi_square_upper_tail(-1.0, 1)
    with pytest.raises(ValueError):
        chi_square_upper_tail(1.0, 0)
    with pytest.raises(ValueError):
        chi_square_upper_tail(3.0, 2.5)


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
    records = [IndicatorRecord(sid, 1 if v > 0 else 0, v or None, v) for sid, v in values.items()]
    return corpus, indicator_table(corpus, records)


def test_repeated_record_is_rejected(tmp_path):
    corpus, records = _two_rank_corpus()
    with pytest.raises(ValueError, match="repeated indicator record for scientist 'a20'"):
        indicator_table(corpus, [*records, records[corpus.scientist_index["a20"]]])
    path = write_indicators(records, tmp_path / "indicators.csv")
    with path.open("a") as fh:
        fh.write("a20,1,8.0,8.0\n")
    with pytest.raises(ValueError, match="indicators row 10: scientist_id 'a20' repeats row 3"):
        read_indicators(path, corpus)


def test_dominance_counts():
    corpus, records = _two_rank_corpus()
    counts = dominance_counts(records, corpus, Indicator.FSS, Rank.FULL, Rank.ASSISTANT)
    assert counts.per_uda["U1"] == (1, 2)  # assistants win S2 only
    assert counts.total == (1, 2)
    assert counts.sds_codes == ("S1", "S2")
    assert counts.b_wins.tolist() == [False, True]
    assert counts.r_diff_a[0] < counts.r_diff_b[0]  # full professors win S1


def test_dominance_excludes_sds_with_empty_group():
    entries = [("f", "S1", "U1", "FULL", []), ("g", "S2", "U1", "FULL", [])]
    corpus = single_author_corpus(entries)
    records = indicator_table(
        corpus, [IndicatorRecord("f", 1, 1.0, 1.0), IndicatorRecord("g", 1, 1.0, 1.0)]
    )
    counts = dominance_counts(records, corpus, Indicator.FSS)
    assert counts.per_uda == {}
    assert counts.excluded_sds == 2


def test_concentration_rows_weighting():
    corpus, records = _two_rank_corpus()
    full = concentration_rows(records, corpus, Indicator.FSS).cell("U1", Rank.FULL)
    g1 = reference_gini([9.0, 8.0, 7.0])
    g2 = reference_gini([1.0, 2.0])
    assert full.gini == weighted_uda_gini([(g1, 3), (g2, 2)]) == pytest.approx((3 * g1 + 2 * g2) / 5)
    assert full.bottom_top_ratio is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_concentration_rows_rejects_non_finite(bad):
    corpus, table = _two_rank_corpus()
    records = list(table)
    records[corpus.scientist_index["a21"]] = IndicatorRecord("a21", 1, 9.0, bad)
    records = indicator_table(corpus, records)
    with pytest.raises(ValueError, match="concentration_rows requires finite values"):
        concentration_rows(records, corpus, Indicator.FSS)
    assert concentration_rows(records, corpus, Indicator.QI).cell("U1", Rank.ASSISTANT).gini > 0


def test_top_distribution_shares_and_index():
    corpus, records = _two_rank_corpus()
    flags = top_scientists(records, Indicator.FSS, corpus, 0.4)
    dist = top_distribution(flags, corpus, Indicator.FSS)
    # S1 flags its best 2 of 5 (both FULL); S2 flags its best 1 of 4 (ASSISTANT)
    assert dist.cell("U1", Rank.FULL).top_count == 2
    assert dist.cell("U1", Rank.ASSISTANT).top_count == 1
    assert dist.percent("top_count", "U1", Rank.FULL) == pytest.approx(100.0 * 2 / 3)
    staff_share = 100.0 * 5 / 9
    assert dist.index("U1", Rank.FULL) == pytest.approx((100.0 * 2 / 3) / staff_share)
    assert dist.chi_square("U1") is not None
    assert dist.chi_square() is not None


def test_top_distribution_rejects_flags_of_another_indicator():
    corpus = generate(SynthConfig(seed=3, n_uda=2, sds_per_uda=2))
    records = compute_indicators(corpus, build_baselines(corpus))
    flags = top_scientists(records, Indicator.NP, corpus, 0.2)
    assert flags.is_top.any()
    with pytest.raises(ValueError, match="top flags of N_p given for FSS"):
        top_distribution(flags, corpus, Indicator.FSS)
