"""Acceptance criteria. One test per criterion; each prints a pass/fail line.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Published-table cross-checks use the printed values of the reference report
(staff distribution and top-scientist distribution); everything else is
checked against independent oracles (pairwise brute force, quadrature,
rank-sum identities) at the stated tolerances.
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy import integrate

from rankmetrics import (
    Indicator,
    IndicatorRecord,
    Rank,
    RunConfig,
    chi_square_independence,
    chi_square_upper_tail,
    coauthor_weights,
    concentration_index,
    load_corpus,
    roster_summary,
    run_pipeline,
    sds_percentiles,
    write_bundle,
)
from rankmetrics.synth import SynthConfig, generate, write_corpus_csv
from rankmetrics.tables import half_up

from conftest import indicator_table, one_block_rows, pair_results
from oracle import weighted_uda_gini


def criterion(label, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[PASS] {label} ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, f"{label}: {elapsed:.2f}s over {budget_seconds}s budget"
        return wrapper
    return decorate


# Published staff distribution: UDA -> (sds, (full, share), (assoc, share), (assist, share))
STAFF_TABLE = {
    "MAT": (9, (1056, 37.2), (1035, 36.5), (744, 26.2)),
    "PHY": (8, (847, 37.1), (890, 39.0), (544, 23.8)),
    "CHE": (12, (1013, 35.8), (1067, 37.7), (752, 26.6)),
    "EAR": (12, (385, 35.0), (427, 38.8), (288, 26.2)),
    "BIO": (19, (1562, 34.9), (1491, 33.3), (1427, 31.9)),
    "MED": (49, (2647, 27.9), (2925, 30.8), (3910, 41.2)),
    "AGR": (28, (941, 39.4), (775, 32.5), (671, 28.1)),
    "CIV": (7, (455, 40.4), (403, 35.8), (269, 23.9)),
    "IND": (42, (1858, 44.7), (1435, 34.6), (860, 20.7)),
}
STAFF_TOTALS = ((10764, 35.1), (10448, 34.1), (9465, 30.9))

# Published top-scientist distribution: UDA -> ((share, index) per rank)
TOP_TABLE = {
    "MAT": ((39.1, 1.05), (37.3, 1.02), (23.6, 0.90)),
    "PHY": ((38.1, 1.03), (39.1, 1.00), (22.9, 0.96)),
    "CHE": ((36.0, 1.01), (39.9, 1.06), (24.0, 0.90)),
    "EAR": ((37.2, 1.06), (39.5, 1.02), (23.3, 0.89)),
    "BIO": ((36.3, 1.04), (34.7, 1.04), (29.0, 0.91)),
    "MED": ((31.0, 1.11), (30.9, 1.00), (38.1, 0.92)),
    "AGR": ((40.8, 1.04), (33.1, 1.02), (26.1, 0.93)),
    "CIV": ((41.5, 1.03), (36.1, 1.01), (22.4, 0.94)),
    "IND": ((44.2, 0.99), (34.7, 1.00), (21.1, 1.02)),
}
TOP_TOTALS = ((36.8, 1.05), (34.7, 1.02), (28.5, 0.92))


@criterion("C1 concentration-index cross-check", 1.0)
def test_c1_concentration_index_cross_check():
    checked = 0
    for uda, cells in TOP_TABLE.items():
        staff = STAFF_TABLE[uda]
        for i in range(3):
            top_share, printed_index = cells[i]
            staff_share = staff[i + 1][1]
            value = concentration_index(top_share, staff_share)
            assert abs(value - printed_index) <= 0.01 + 1e-9, (uda, i, value, printed_index)
            checked += 1
    for i in range(3):
        top_share, printed_index = TOP_TOTALS[i]
        value = concentration_index(top_share, STAFF_TOTALS[i][1])
        assert abs(value - printed_index) <= 0.01 + 1e-9
        checked += 1
    assert checked == 30


@criterion("C2 roster percentage-cell cross-check", 1.0)
def test_c2_roster_shares_cross_check():
    ranks = ("FULL", "ASSOCIATE", "ASSISTANT")
    scientists = []
    for uda, (sds_count, *cells) in STAFF_TABLE.items():
        for rank, (count, _) in zip(ranks, cells):
            for i in range(count):
                scientists.append(
                    {
                        "scientist_id": f"{uda}-{rank}-{i}",
                        "sds_code": f"{uda}-S{i % sds_count + 1}",
                        "uda_code": uda,
                        "rank": rank,
                        "birth_year": "",
                    }
                )
    corpus = load_corpus(scientists, [], [])
    summary = roster_summary(corpus, reference_year=2009)
    assert summary.cell().headcount == 30677

    for uda, (sds_count, *cells) in STAFF_TABLE.items():
        assert summary.sds_counts[uda] == sds_count
        for rank, (count, printed) in zip(Rank, cells):
            assert summary.cell(uda, rank).headcount == count
            rendered = float(half_up(summary.percent("headcount", uda, rank), 1))
            assert abs(rendered - printed) <= 0.05 + 1e-9, (uda, rank, rendered, printed)
    for rank, (count, printed) in zip(Rank, STAFF_TOTALS):
        assert summary.cell(None, rank).headcount == count
        rendered = float(half_up(summary.percent("headcount", None, rank), 1))
        assert abs(rendered - printed) <= 0.05 + 1e-9


@criterion("C3 Gini brute-force oracle", 10.0)
def test_c3_gini_oracle():
    # one (UDA, SDS, rank) block per trial; a cell of one field weighs its Gini by 1
    rng = np.random.default_rng(33)
    trials = []
    for trial in range(1000):
        n = int(rng.integers(1, 201))
        kind = trial % 4
        if kind == 0:
            values = rng.uniform(0, 1000, size=n)
        elif kind == 1:
            values = rng.integers(0, 12, size=n).astype(float)  # heavy ties, zeros
        elif kind == 2:
            values = rng.exponential(5.0, size=n)
        else:
            values = np.zeros(n)
            values[: max(1, n // 10)] = rng.uniform(1, 50, size=max(1, n // 10))
        trials.append(values)
    *rows, equal, spike = one_block_rows([*trials, [7.3] * 25, [0.0] * 99 + [1.0]])
    for trial, (x, row) in enumerate(zip(trials, rows)):
        n, mean = x.size, x.mean()
        brute = 0.0 if mean == 0 else float(
            np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * mean)
        )
        assert abs(row.gini - brute) <= 1e-10, (trial, row.gini, brute)
    assert equal.gini == 0.0
    assert spike.gini == weighted_uda_gini([(0.99, 100)]) == 0.99


@criterion("C4 rank-sum identity", 5.0)
def test_c4_rank_sum_identity():
    # one field per trial, FULL members against ASSISTANT members
    rng = np.random.default_rng(44)
    pairs = []
    for trial in range(1000):
        n_a = int(rng.integers(1, 101))
        n_b = int(rng.integers(1, 101))
        # integer draws inject heavy ties
        pairs.append((rng.integers(0, 12, size=n_a).astype(float).tolist(),
                      rng.integers(0, 12, size=n_b).astype(float).tolist()))
    transformed = pair_results([([x ** 3 + 2.0 for x in a], [x ** 3 + 2.0 for x in b]) for a, b in pairs])
    for (a, b), res, other in zip(pairs, pair_results(pairs), transformed):
        assert abs(res.r_diff_a + res.r_diff_b - len(a) * len(b)) <= 1e-9
        # group b wins where its distance is strictly smaller, as after any monotone transform
        assert res.b_wins == (res.r_diff_b < res.r_diff_a) == other.b_wins


@criterion("C5 co-author weight exactness", 1.0)
def test_c5_weight_sums_and_vectors():
    flag_cases = (
        {},
        {"first_last_same": True},
        {"boundary_pairs_differ": True},
    )
    for n in range(1, 51):
        for flags in flag_cases:
            weights = coauthor_weights(n, **flags)
            assert abs(math.fsum(weights) - 1.0) <= 1e-12, (n, flags)

    shared = coauthor_weights(5, first_last_same=True)
    expected = [0.40, 0.20 / 3, 0.20 / 3, 0.20 / 3, 0.40]
    assert all(abs(w - e) <= 1e-12 for w, e in zip(shared, expected))

    distinct = coauthor_weights(6, boundary_pairs_differ=True)
    expected = [0.30, 0.15, 0.05, 0.05, 0.15, 0.30]
    assert all(abs(w - e) <= 1e-12 for w, e in zip(distinct, expected))

    assert coauthor_weights(1, first_last_same=True) == [1.0]
    assert coauthor_weights(4) == [0.25] * 4


@criterion("C6 percentile invariants", 5.0)
def test_c6_percentile_invariants():
    rng = np.random.default_rng(66)
    scientists = []
    values = {}
    for pop in range(500):
        sds = f"S{pop:03d}"
        n = int(rng.integers(2, 61))
        # interior values carry ties; extremes are unique so the endpoint
        # convention (worst 0, best 100) is observable
        interior = rng.integers(2, 9, size=n - 2).astype(float).tolist()
        members = [0.0] + interior + [20.0]
        for i, value in enumerate(members):
            sid = f"{sds}-{i}"
            scientists.append(
                {"scientist_id": sid, "sds_code": sds, "uda_code": "U1",
                 "rank": "FULL", "birth_year": ""}
            )
            values[sid] = value
    corpus = load_corpus(scientists, [], [])
    records = indicator_table(corpus, [IndicatorRecord(sid, 1, v, v) for sid, v in values.items()])
    pcts = sds_percentiles(records, Indicator.FSS, corpus)

    per_sds = {}
    for rec in pcts:
        per_sds.setdefault(rec.sds_code, []).append(rec.percentile)
    assert len(per_sds) == 500
    for sds, group in per_sds.items():
        assert min(group) == 0.0
        assert max(group) == 100.0
        assert abs(float(np.mean(group)) - 50.0) <= 1e-9

    transformed = indicator_table(
        corpus, [IndicatorRecord(sid, 1, v, math.exp(v / 4.0)) for sid, v in values.items()]
    )
    pcts_t = sds_percentiles(transformed, Indicator.FSS, corpus)
    original = {(p.scientist_id): p.percentile for p in pcts}
    for rec in pcts_t:
        assert abs(rec.percentile - original[rec.scientist_id]) <= 1e-9


@criterion("C7 chi-square numerics", 1.0)
def test_c7_chi_square_numerics():
    res = chi_square_independence([[12, 18, 30], [4, 6, 10]])
    assert res.statistic == 0.0
    assert res.p_value == 1.0

    def density(x, df):
        return x ** (df / 2.0 - 1.0) * math.exp(-x / 2.0) / (
            2.0 ** (df / 2.0) * math.gamma(df / 2.0)
        )

    for statistic, df, nominal in [(3.841, 1, 0.050), (6.635, 1, 0.010)]:
        p = chi_square_upper_tail(statistic, df)
        oracle, _ = integrate.quad(density, statistic, np.inf, args=(df,))
        assert abs(p - nominal) <= 0.001, (statistic, p)
        assert abs(p - oracle) <= 1e-8, (statistic, p, oracle)


@criterion("C8 end-to-end recovery", 30.0)
def test_c8_end_to_end_recovery(tmp_path):
    config = SynthConfig(seed=2)  # 9 UDAs x 3 SDSs x 60 scientists (20 per rank)
    paths = write_corpus_csv(generate(config), tmp_path / "corpus")
    run = RunConfig(
        scientists=paths["scientists"],
        publications=paths["publications"],
        authorships=paths["authorships"],
        output_format="csv",
    )
    bundle = run_pipeline(run)

    for key in ("T5_percentile_np", "T6_percentile_fss"):
        rows = bundle.tables[key].rows
        uda_rows = [r for r in rows if r[0] != "Total"]
        assert len(uda_rows) == 9
        ordered = sum(1 for r in uda_rows if r[1] > r[2] > r[3])
        assert ordered >= 8, (key, ordered)

    dominance = bundle.tables["T8_dominance"]
    total_row = dominance.rows[-1]
    assert total_row[0] == "Total"
    for wins, counted in total_row[1:]:
        assert counted == 27
        assert wins <= 2, total_row

    first = write_bundle(bundle, tmp_path / "run1", "csv")
    second = write_bundle(run_pipeline(run), tmp_path / "run2", "csv")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


@criterion("C9 uniformity endpoints", 1.0)
def test_c9_bottom_top_endpoints():
    # one (UDA, SDS, rank) block per population
    uniform = one_block_rows([[3.7] * n for n in (1, 2, 5, 10, 100)])
    assert all(row.bottom_top_ratio == pytest.approx(1.0, abs=1e-12) for row in uniform)
    spikes = one_block_rows([[0.0] * (n - 1) + [10.0] for n in (5, 10, 100)])
    assert [row.bottom_top_ratio for row in spikes] == [0.0, 0.0, 0.0]
