"""Golden values of the Monte Carlo estimators.

Each entry is the exact ``repr`` of what ``sync_distance_mc`` (rho = 1) or
``rho_scan`` (one constant rho) returned at a fixed seed, or the name of
the exception it raised, so a change that moves the last bit of any
estimate or stderr fails here.  The values are the same for one, two and
three threads, and when every batch is drawn in chunks.  A second table pins uneven batch widths, so each
worker's workspace serves batches of more than one width.
"""

import pytest

from adapted_ot import estimate
from adapted_ot.estimate import _coupled_cost_mc, rho_scan, sync_distance_mc
from adapted_ot.model import AdaptedOTError, TimeGrid, constant, table

# state-dependent drift and volatility on X, a constant pair on Y; the
# drifts are bounded, so the transformed scheme runs too
PAIR = (table([-10.0, 0.0, 10.0], [-0.5, 0.5, -0.5]),
        table([-10.0, 0.0, 10.0], [1.5, 1.0, 1.5], role="diffusion"),
        constant(0.25), constant(0.75, role="diffusion"))
GRID = TimeGrid(16)
N_SAMPLES = 2000
SEED = 31


def _run(scheme, m_sub, p, rho, threads):
    kwargs = dict(seed=SEED, scheme=scheme, m_sub=m_sub, threads=threads)
    try:
        if rho == "1":
            res = sync_distance_mc(*PAIR, GRID, p, N_SAMPLES, **kwargs)
        else:
            (row,) = rho_scan(*PAIR, GRID, p, [float(rho)], N_SAMPLES, **kwargs)
            return (repr(row.estimate), repr(row.stderr))
    except AdaptedOTError as err:
        return type(err).__name__
    return (repr(res.estimate), repr(res.stderr), res.n_samples, res.n_diverged)


GOLDEN = {
    'em m1 p1 rho=1': ('0.16378891323775405', '0.0022191011984610976', 2000, 0),
    'em m1 p1 rho=0.5': ('0.48516712882878077', '0.006537535635119954'),
    'em m1 p1 rho=-1': ('0.9413241521720039', '0.012717228072204729'),
    'em m1 p2 rho=1': ('0.050011127919811854', '0.0013234508418030863', 2000, 0),
    'em m1 p2 rho=0.5': ('0.43625474325424074', '0.011411795109522515'),
    'em m1 p2 rho=-1': ('1.638044830534922', '0.04371119314081486'),
    'em m1 p3 rho=1': ('0.02026703052894076', '0.0008565482135190147', 2000, 0),
    'em m1 p3 rho=0.5': ('0.5129975173454172', '0.02128269113574023'),
    'em m1 p3 rho=-1': ('3.74302542192546', '0.16233146227322823'),
    'em m3 p1 rho=1': ('0.1587032116097128', '0.002147572153067137', 2000, 0),
    'em m3 p1 rho=0.5': ('0.483277476502554', '0.006405513496406321'),
    'em m3 p1 rho=-1': ('0.9101510827126319', '0.012067311479149781'),
    'em m3 p2 rho=1': ('0.04782016925107018', '0.001279197291792753', 2000, 0),
    'em m3 p2 rho=0.5': ('0.43086215488354235', '0.011231907298219705'),
    'em m3 p2 rho=-1': ('1.5441726580058153', '0.04021396916266625'),
    'em m3 p3 rho=1': ('0.019454662478236368', '0.0008466701268473343', 2000, 0),
    'em m3 p3 rho=0.5': ('0.5046758269415954', '0.021390491082597378'),
    'em m3 p3 rho=-1': ('3.4552300270586347', '0.14504128711598183'),
    'monotone-em m1 p1 rho=1': ('0.16378891323775405', '0.0022191011984610976', 2000, 0),
    'monotone-em m1 p1 rho=0.5': ('0.48516712882878077', '0.006537535635119954'),
    'monotone-em m1 p1 rho=-1': ('0.9413241521720039', '0.012717228072204729'),
    'monotone-em m1 p2 rho=1': ('0.050011127919811854', '0.0013234508418030863', 2000, 0),
    'monotone-em m1 p2 rho=0.5': ('0.43625474325424074', '0.011411795109522515'),
    'monotone-em m1 p2 rho=-1': ('1.638044830534922', '0.04371119314081486'),
    'monotone-em m1 p3 rho=1': ('0.02026703052894076', '0.0008565482135190147', 2000, 0),
    'monotone-em m1 p3 rho=0.5': ('0.5129975173454172', '0.02128269113574023'),
    'monotone-em m1 p3 rho=-1': ('3.74302542192546', '0.16233146227322823'),
    'monotone-em m3 p1 rho=1': ('0.1587032116097128', '0.002147572153067137', 2000, 0),
    'monotone-em m3 p1 rho=0.5': ('0.483277476502554', '0.006405513496406321'),
    'monotone-em m3 p1 rho=-1': ('0.9101510827126319', '0.012067311479149781'),
    'monotone-em m3 p2 rho=1': ('0.04782016925107018', '0.001279197291792753', 2000, 0),
    'monotone-em m3 p2 rho=0.5': ('0.43086215488354235', '0.011231907298219705'),
    'monotone-em m3 p2 rho=-1': ('1.5441726580058153', '0.04021396916266625'),
    'monotone-em m3 p3 rho=1': ('0.019454662478236368', '0.0008466701268473343', 2000, 0),
    'monotone-em m3 p3 rho=0.5': ('0.5046758269415954', '0.021390491082597378'),
    'monotone-em m3 p3 rho=-1': ('3.4552300270586347', '0.14504128711598183'),
    'zvonkin-em m1 p1 rho=1': ('0.1803978927299409', '0.0027722286583632023', 2000, 0),
    'zvonkin-em m1 p1 rho=0.5': ('0.5135960181176392', '0.007117559741258963'),
    'zvonkin-em m1 p1 rho=-1': ('0.9816342154573303', '0.013407776670831055'),
    'zvonkin-em m1 p2 rho=1': ('0.06421929684655482', '0.0020826714787262443', 2000, 0),
    'zvonkin-em m1 p2 rho=0.5': ('0.49308696749420594', '0.013669970647183768'),
    'zvonkin-em m1 p2 rho=-1': ('1.783883072195605', '0.048304374718561874'),
    'zvonkin-em m1 p3 rho=1': ('0.03143768653884448', '0.001786006051528543', 2000, 0),
    'zvonkin-em m1 p3 rho=0.5': ('0.6274260430929125', '0.02847363623060588'),
    'zvonkin-em m1 p3 rho=-1': ('4.267697946783377', '0.18772638705749198'),
    'zvonkin-em m3 p1 rho=1': ('0.17466748880626043', '0.0025688047402834505', 2000, 0),
    'zvonkin-em m3 p1 rho=0.5': ('0.5110676997546014', '0.006892539549793755'),
    'zvonkin-em m3 p1 rho=-1': ('0.9473937281577405', '0.012596246141787447'),
    'zvonkin-em m3 p2 rho=1': ('0.05975341207242681', '0.0017046764648577782', 2000, 0),
    'zvonkin-em m3 p2 rho=0.5': ('0.48415509861650874', '0.012945076933406548'),
    'zvonkin-em m3 p2 rho=-1': ('1.6700708356765632', '0.04347588127832436'),
    'zvonkin-em m3 p3 rho=1': ('0.027599298482311855', '0.0012231092277684256', 2000, 0),
    'zvonkin-em m3 p3 rho=0.5': ('0.6074890333865208', '0.026380237989109136'),
    'zvonkin-em m3 p3 rho=-1': ('3.885257034941608', '0.16171782245185498'),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scheme", ["em", "monotone-em", "zvonkin-em"])
def test_mc_estimators_reproduce_golden_values(scheme, threads):
    n_checked = 0
    for m_sub in (1, 3):
        for p in (1, 2, 3):
            for rho in ("1", "0.5", "-1"):
                key = f"{scheme} m{m_sub} p{p} rho={rho}"
                assert _run(scheme, m_sub, p, rho, threads) == GOLDEN[key], key
                n_checked += 1
    assert n_checked == 18


# 2,003 samples in 20 batches are 17 batches of 100 replicates and 3 of 101;
# monotone-em runs at K = 1, where about one increment in ten is stopped
UNEVEN_SAMPLES = 2003
GOLDEN_UNEVEN = {
    'em m1 p1 rho=1': ('0.1638014111990882', '0.002216746232945397', 2003, 0),
    'em m1 p1 rho=0.5': ('0.48524958649226946', '0.006529176949859494', 2003, 0),
    'em m1 p1 rho=-1': ('0.9413091396785441', '0.012698985362290744', 2003, 0),
    'em m1 p2 rho=1': ('0.050011595991471085', '0.001321776860236161', 2003, 0),
    'em m1 p2 rho=0.5': ('0.43622796499872085', '0.011395707131649259', 2003, 0),
    'em m1 p2 rho=-1': ('1.6374494904855739', '0.043648238113831256', 2003, 0),
    'em m3 p1 rho=1': ('0.15867115203387913', '0.002144786732471574', 2003, 0),
    'em m3 p1 rho=0.5': ('0.4833397158525044', '0.006396395728063191', 2003, 0),
    'em m3 p1 rho=-1': ('0.910275425172178', '0.012052041090732341', 2003, 0),
    'em m3 p2 rho=1': ('0.047795765999991816', '0.001277487875085414', 2003, 0),
    'em m3 p2 rho=0.5': ('0.4307927446480871', '0.011215473624899061', 2003, 0),
    'em m3 p2 rho=-1': ('1.54395637476312', '0.0401587467423495', 2003, 0),
    'monotone-em m1 p1 rho=1': ('0.15506980562166228', '0.0020314242728521003', 2003, 0),
    'monotone-em m1 p1 rho=0.5': ('0.4482175159939283', '0.005990946433816793', 2003, 0),
    'monotone-em m1 p1 rho=-1': ('0.8642852589144578', '0.01133719546691694', 2003, 0),
    'monotone-em m1 p2 rho=1': ('0.04405071235620172', '0.0010975218353325557', 2003, 0),
    'monotone-em m1 p2 rho=0.5': ('0.3724711528848165', '0.009545000609716942', 2003, 0),
    'monotone-em m1 p2 rho=-1': ('1.3664976609445163', '0.03452764803342911', 2003, 0),
    'monotone-em m3 p1 rho=1': ('0.15159228231849872', '0.0020119489047499134', 2003, 0),
    'monotone-em m3 p1 rho=0.5': ('0.45524441315988534', '0.005937131342846952', 2003, 0),
    'monotone-em m3 p1 rho=-1': ('0.8485646904706501', '0.011004386263213992', 2003, 0),
    'monotone-em m3 p2 rho=1': ('0.04301913863114186', '0.0011092547425714586', 2003, 0),
    'monotone-em m3 p2 rho=0.5': ('0.38042433757814026', '0.009675692861619616', 2003, 0),
    'monotone-em m3 p2 rho=-1': ('1.3294620945345539', '0.033509829956431474', 2003, 0),
}


def _run_uneven(scheme, m_sub, p, rho, threads):
    res = _coupled_cost_mc(*PAIR, GRID, p, rho, UNEVEN_SAMPLES,
                           SEED, scheme=scheme, m_sub=m_sub, threads=threads,
                           trunc_k=1)
    return (repr(res.estimate), repr(res.stderr), res.n_samples, res.n_diverged)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("scheme", ["em", "monotone-em"])
def test_uneven_batches_reproduce_golden_values(scheme, threads):
    n_checked = 0
    for m_sub in (1, 3):
        for p in (1, 2):
            for rho in (1.0, 0.5, -1.0):
                key = f"{scheme} m{m_sub} p{p} rho={rho:g}"
                assert _run_uneven(scheme, m_sub, p, rho, threads) == GOLDEN_UNEVEN[key], key
                n_checked += 1
    assert n_checked == 12


def _draw_widths(monkeypatch):
    """The replicate counts of the estimator's draws, in the order made."""
    # the traced benchmark times the draw by wrapping this module attribute
    widths = []
    draw = estimate.sample_correlated_pair

    def counting(*args, **kwargs):
        widths.append(kwargs["n_replicates"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(estimate, "sample_correlated_pair", counting)
    return widths


@pytest.mark.parametrize("threads", [1, 3])
def test_one_draw_per_batch(monkeypatch, threads):
    widths = _draw_widths(monkeypatch)
    _run_uneven("em", 1, 2, 0.5, threads)
    # a batch whose workspace fits the budget is one draw
    assert sorted(widths) == [100] * 17 + [101] * 3
    # a wider one is the fewest near-equal chunks that fit: here a
    # replicate's workspace is 114 doubles (the draw's stride 32, dW and
    # dW_bar 16 each, both paths 17 each, the table sigma_x 16), and the
    # budget holds 30 replicates, so each batch is 4 chunks
    widths.clear()
    monkeypatch.setattr(estimate, "CHUNK_BYTES", 30 * 114 * 8)
    _run_uneven("em", 1, 2, 0.5, threads)
    assert sorted(widths) == [25] * 77 + [26] * 3


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_chunked_draws_reproduce_golden_values(monkeypatch, threads):
    # a budget of 77 kB splits every batch into 2 or 3 chunks (a replicate's
    # workspace is 98 to 274 doubles here); each replicate keeps its stream
    # and its cost, and each batch's moments are still taken over the whole
    # batch
    widths = _draw_widths(monkeypatch)
    monkeypatch.setattr(estimate, "CHUNK_BYTES", 77_000)
    for table_, run in ((GOLDEN, _run), (GOLDEN_UNEVEN, _run_uneven)):
        for key, want in table_.items():
            scheme, m_sub, p, rho = key.split()
            rho = rho.removeprefix("rho=")
            got = run(scheme, int(m_sub[1:]), int(p[1:]),
                      rho if run is _run else float(rho), threads)
            assert got == want, key
    assert max(widths) <= 51 and min(widths) >= 33
