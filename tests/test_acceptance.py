"""The acceptance gate: every criterion at its stated tolerance, one
pass/fail line each (run with ``pytest -s`` to see the lines as they go)."""

from adapted_ot import acceptance


def _run(criterion):
    result = criterion(seed=acceptance.DEFAULT_SEED, quick=False)
    print(result.line(), flush=True)
    assert result.passed, result.detail


def test_criterion_1_kr_optimality():
    _run(acceptance.criterion_1_kr_optimality)


def test_criterion_2_dp_vs_lp():
    _run(acceptance.criterion_2_dp_vs_lp)


def test_criterion_3_example_pins():
    _run(acceptance.criterion_3_example_pins)


def test_criterion_4_metric_ordering():
    _run(acceptance.criterion_4_metric_ordering)


def test_criterion_5_scaling_limit():
    _run(acceptance.criterion_5_scaling_limit)


def test_criterion_6_sync_oracles():
    _run(acceptance.criterion_6_sync_oracles)


def test_criterion_7_rho_scan():
    _run(acceptance.criterion_7_rho_scan)


def test_criterion_8_truncation_lemma():
    _run(acceptance.criterion_8_truncation_lemma)


def test_criterion_9_fosd_certificate():
    _run(acceptance.criterion_9_fosd_certificate)


def test_criterion_10_zvonkin():
    _run(acceptance.criterion_10_zvonkin)


def test_criterion_11_counterexample():
    _run(acceptance.criterion_11_counterexample)


def test_criterion_12_stability():
    _run(acceptance.criterion_12_stability)


# the quick runs' detail lines at the default seed, pinned exactly: the exit
# frequency of criterion 8 is its exit count over 10^5 samples, and the KS
# statistic of criterion 10 reads every replicate's endpoint


def test_criterion_8_quick_detail_is_pinned():
    result = acceptance.criterion_8_truncation_lemma(seed=7, quick=True)
    assert result.detail == (
        "exit freq 0.19916 in [0.12916, 0.25832] +- 0.00505; K=4 exits 0; "
        "K=1 fourth moment 8.13e-04 <= 1.90e-02")


def test_criterion_10_quick_detail_is_pinned():
    result = acceptance.criterion_10_zvonkin(seed=7, quick=True)
    assert result.detail == ("KS(X_1 direct, transformed) = 0.0084 (tol 0.03); "
                             "Lipschitz certificate = 2.0")
