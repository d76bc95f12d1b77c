"""Golden values of the Monte Carlo estimators.

Each entry is the exact ``repr`` of what ``sync_distance_mc`` (rho = 1),
``rho_scan`` (one constant rho) or the coupled estimator under a rho table
returned at a fixed seed, or the name of the exception it raised, so a
change that moves the last bit of any estimate or stderr fails here.  The
values are the same for one and for two threads.  A second table pins
uneven batch widths, so each worker's workspace serves batches of more than
one width.
"""

import pytest

from adapted_ot import estimate
from adapted_ot.estimate import _coupled_cost_mc, rho_scan, sync_distance_mc
from adapted_ot.model import AdaptedOTError, TimeGrid, constant, table
from adapted_ot.noise import constant_rho, rho_table

# state-dependent drift and volatility on X, a constant pair on Y; the
# drifts are bounded, so the transformed scheme runs too
PAIR = (table([-10.0, 0.0, 10.0], [-0.5, 0.5, -0.5]),
        table([-10.0, 0.0, 10.0], [1.5, 1.0, 1.5], role="diffusion"),
        constant(0.25), constant(0.75, role="diffusion"))
GRID = TimeGrid(16)
N_SAMPLES = 2000
SEED = 31
RHO_TABLE = rho_table([0.0, 0.5], [0.5, -1.0])


def _run(scheme, m_sub, p, rho, threads):
    kwargs = dict(seed=SEED, scheme=scheme, m_sub=m_sub, threads=threads,
                  n_batches=4)
    try:
        if rho == "1":
            res = sync_distance_mc(*PAIR, GRID, p, N_SAMPLES, **kwargs)
        elif rho == "table":
            res = _coupled_cost_mc(*PAIR, GRID, p, RHO_TABLE, N_SAMPLES, **kwargs)
        else:
            (row,) = rho_scan(*PAIR, GRID, p, [float(rho)], N_SAMPLES, **kwargs)
            return (repr(row.estimate), repr(row.stderr))
    except AdaptedOTError as err:
        return type(err).__name__
    return (repr(res.estimate), repr(res.stderr), res.n_samples, res.n_diverged)


GOLDEN = {
    'em m1 p1 rho=1': ('0.16378891323775405', '0.0014770682156361541', 2000, 0),
    'em m1 p1 rho=0.5': ('0.48516712882878077', '0.004348511840698342'),
    'em m1 p1 rho=-1': ('0.941324152172004', '0.003328488850075389'),
    'em m1 p1 rho=table': ('0.5910349074393514', '0.0067409976434766655', 2000, 0),
    'em m1 p2 rho=1': ('0.050011127919811854', '0.0005236387280268923', 2000, 0),
    'em m1 p2 rho=0.5': ('0.4362547432542407', '0.007024659899189931'),
    'em m1 p2 rho=-1': ('1.6380448305349222', '0.007760714643467733'),
    'em m1 p2 rho=table': ('0.716594851910225', '0.020929191875331273', 2000, 0),
    'em m1 p3 rho=1': ('0.020267030528940765', '0.0002745941470682201', 2000, 0),
    'em m1 p3 rho=0.5': ('0.5129975173454173', '0.013521355501810132'),
    'em m1 p3 rho=-1': ('3.7430254219254597', '0.014455548833152526'),
    'em m1 p3 rho=table': ('1.1765999612725118', '0.06456500465430733', 2000, 0),
    'em m3 p1 rho=1': ('0.15870321160971282', '0.0016904425164344745', 2000, 0),
    'em m3 p1 rho=0.5': ('0.48327747650255415', '0.01194714906930007'),
    'em m3 p1 rho=-1': ('0.9101510827126317', '0.014831771492096432'),
    'em m3 p1 rho=table': ('0.5975670116014262', '0.013693027243742212', 2000, 0),
    'em m3 p2 rho=1': ('0.047820169251070195', '0.0010837018556779459', 2000, 0),
    'em m3 p2 rho=0.5': ('0.4308621548835424', '0.015584457327823613'),
    'em m3 p2 rho=-1': ('1.5441726580058153', '0.04706556902655886'),
    'em m3 p2 rho=table': ('0.7354890863480888', '0.02900013588472255', 2000, 0),
    'em m3 p3 rho=1': ('0.01945466247823637', '0.0007501717642311784', 2000, 0),
    'em m3 p3 rho=0.5': ('0.5046758269415953', '0.024277433081594194'),
    'em m3 p3 rho=-1': ('3.4552300270586347', '0.15707292811576373'),
    'em m3 p3 rho=table': ('1.244220856404166', '0.06674098807850763', 2000, 0),
    'monotone-em m1 p1 rho=1': ('0.16378891323775405', '0.0014770682156361541', 2000, 0),
    'monotone-em m1 p1 rho=0.5': ('0.48516712882878077', '0.004348511840698342'),
    'monotone-em m1 p1 rho=-1': ('0.941324152172004', '0.003328488850075389'),
    'monotone-em m1 p1 rho=table': ('0.5910349074393514', '0.0067409976434766655', 2000, 0),
    'monotone-em m1 p2 rho=1': ('0.050011127919811854', '0.0005236387280268923', 2000, 0),
    'monotone-em m1 p2 rho=0.5': ('0.4362547432542407', '0.007024659899189931'),
    'monotone-em m1 p2 rho=-1': ('1.6380448305349222', '0.007760714643467733'),
    'monotone-em m1 p2 rho=table': ('0.716594851910225', '0.020929191875331273', 2000, 0),
    'monotone-em m1 p3 rho=1': ('0.020267030528940765', '0.0002745941470682201', 2000, 0),
    'monotone-em m1 p3 rho=0.5': ('0.5129975173454173', '0.013521355501810132'),
    'monotone-em m1 p3 rho=-1': ('3.7430254219254597', '0.014455548833152526'),
    'monotone-em m1 p3 rho=table': ('1.1765999612725118', '0.06456500465430733', 2000, 0),
    'monotone-em m3 p1 rho=1': ('0.15870321160971282', '0.0016904425164344745', 2000, 0),
    'monotone-em m3 p1 rho=0.5': ('0.48327747650255415', '0.01194714906930007'),
    'monotone-em m3 p1 rho=-1': ('0.9101510827126317', '0.014831771492096432'),
    'monotone-em m3 p1 rho=table': ('0.5975670116014262', '0.013693027243742212', 2000, 0),
    'monotone-em m3 p2 rho=1': ('0.047820169251070195', '0.0010837018556779459', 2000, 0),
    'monotone-em m3 p2 rho=0.5': ('0.4308621548835424', '0.015584457327823613'),
    'monotone-em m3 p2 rho=-1': ('1.5441726580058153', '0.04706556902655886'),
    'monotone-em m3 p2 rho=table': ('0.7354890863480888', '0.02900013588472255', 2000, 0),
    'monotone-em m3 p3 rho=1': ('0.01945466247823637', '0.0007501717642311784', 2000, 0),
    'monotone-em m3 p3 rho=0.5': ('0.5046758269415953', '0.024277433081594194'),
    'monotone-em m3 p3 rho=-1': ('3.4552300270586347', '0.15707292811576373'),
    'monotone-em m3 p3 rho=table': ('1.244220856404166', '0.06674098807850763', 2000, 0),
    'zvonkin-em m1 p1 rho=1': ('0.1803978927299409', '0.0029718675879481416', 2000, 0),
    'zvonkin-em m1 p1 rho=0.5': ('0.5135960181176393', '0.004889803874800279'),
    'zvonkin-em m1 p1 rho=-1': ('0.9816342154573303', '0.005633833783946171'),
    'zvonkin-em m1 p1 rho=table': ('0.6205213331211737', '0.007604391452590517', 2000, 0),
    'zvonkin-em m1 p2 rho=1': ('0.06421929684655482', '0.002336407542272582', 2000, 0),
    'zvonkin-em m1 p2 rho=0.5': ('0.49308696749420605', '0.006888471873517276'),
    'zvonkin-em m1 p2 rho=-1': ('1.783883072195605', '0.012821729087114587'),
    'zvonkin-em m1 p2 rho=table': ('0.7878862324960036', '0.022978717394542256', 2000, 0),
    'zvonkin-em m1 p3 rho=1': ('0.031437686538844475', '0.0022124116971037446', 2000, 0),
    'zvonkin-em m1 p3 rho=0.5': ('0.6274260430929125', '0.011923528061848251'),
    'zvonkin-em m1 p3 rho=-1': ('4.267697946783377', '0.04677223262606448'),
    'zvonkin-em m1 p3 rho=table': ('1.3583535033692191', '0.07198059272789106', 2000, 0),
    'zvonkin-em m3 p1 rho=1': ('0.17466748880626046', '0.0021757226467697113', 2000, 0),
    'zvonkin-em m3 p1 rho=0.5': ('0.5110676997546014', '0.012819797277124682'),
    'zvonkin-em m3 p1 rho=-1': ('0.9473937281577405', '0.016122280016802548'),
    'zvonkin-em m3 p1 rho=table': ('0.6268163968813218', '0.014172065445023065', 2000, 0),
    'zvonkin-em m3 p2 rho=1': ('0.059753412072426806', '0.0013771800184813764', 2000, 0),
    'zvonkin-em m3 p2 rho=0.5': ('0.48415509861650874', '0.017778736655541975'),
    'zvonkin-em m3 p2 rho=-1': ('1.6700708356765632', '0.051673846839804485'),
    'zvonkin-em m3 p2 rho=table': ('0.8075778135548783', '0.02990220635149614', 2000, 0),
    'zvonkin-em m3 p3 rho=1': ('0.02759929848231186', '0.0009631822573591438', 2000, 0),
    'zvonkin-em m3 p3 rho=0.5': ('0.6074890333865208', '0.031008974529550672'),
    'zvonkin-em m3 p3 rho=-1': ('3.885257034941607', '0.1747213471247692'),
    'zvonkin-em m3 p3 rho=table': ('1.4345720205124293', '0.06982784122784196', 2000, 0),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scheme", ["em", "monotone-em", "zvonkin-em"])
def test_mc_estimators_reproduce_golden_values(scheme, threads):
    n_checked = 0
    for m_sub in (1, 3):
        for p in (1, 2, 3):
            for rho in ("1", "0.5", "-1", "table"):
                key = f"{scheme} m{m_sub} p{p} rho={rho}"
                assert _run(scheme, m_sub, p, rho, threads) == GOLDEN[key], key
                n_checked += 1
    assert n_checked == 24


# 2,003 samples in 4 batches are batches of 500, 501, 501 and 501 replicates;
# monotone-em runs at K = 1, where about one increment in ten is stopped
UNEVEN_SAMPLES = 2003
GOLDEN_UNEVEN = {
    'em m1 p1 rho=1': ('0.16380141119908817', '0.0015600093153935186', 2003, 0),
    'em m1 p1 rho=0.5': ('0.4852495864922694', '0.00435982320704318', 2003, 0),
    'em m1 p1 rho=-1': ('0.9413091396785443', '0.0037438536471448187', 2003, 0),
    'em m1 p2 rho=1': ('0.05001159599147108', '0.0005598272904212446', 2003, 0),
    'em m1 p2 rho=0.5': ('0.43622796499872085', '0.006808825770720817', 2003, 0),
    'em m1 p2 rho=-1': ('1.637449490485574', '0.0071355928021122', 2003, 0),
    'em m3 p1 rho=1': ('0.15867115203387908', '0.0016752755491289933', 2003, 0),
    'em m3 p1 rho=0.5': ('0.4833397158525044', '0.0117685129804434', 2003, 0),
    'em m3 p1 rho=-1': ('0.9102754251721781', '0.014554777708698768', 2003, 0),
    'em m3 p2 rho=1': ('0.04779576599999181', '0.0010795133135320584', 2003, 0),
    'em m3 p2 rho=0.5': ('0.4307927446480872', '0.015465055184841162', 2003, 0),
    'em m3 p2 rho=-1': ('1.5439563747631198', '0.04652970936454321', 2003, 0),
    'monotone-em m1 p1 rho=1': ('0.15506980562166228', '0.0014691579154622622', 2003, 0),
    'monotone-em m1 p1 rho=0.5': ('0.4482175159939283', '0.00407218302477229', 2003, 0),
    'monotone-em m1 p1 rho=-1': ('0.8642852589144578', '0.0032128516866772048', 2003, 0),
    'monotone-em m1 p2 rho=1': ('0.04405071235620172', '0.00045334972133052745', 2003, 0),
    'monotone-em m1 p2 rho=0.5': ('0.37247115288481647', '0.005973633169637303', 2003, 0),
    'monotone-em m1 p2 rho=-1': ('1.3664976609445163', '0.011313552990335856', 2003, 0),
    'monotone-em m3 p1 rho=1': ('0.15159228231849872', '0.0013115412894239712', 2003, 0),
    'monotone-em m3 p1 rho=0.5': ('0.45524441315988534', '0.011085161827161764', 2003, 0),
    'monotone-em m3 p1 rho=-1': ('0.8485646904706501', '0.014302840619918817', 2003, 0),
    'monotone-em m3 p2 rho=1': ('0.043019138631141866', '0.0009292421473174298', 2003, 0),
    'monotone-em m3 p2 rho=0.5': ('0.38042433757814026', '0.01391025304500208', 2003, 0),
    'monotone-em m3 p2 rho=-1': ('1.329462094534554', '0.04229745642131919', 2003, 0),
}


def _run_uneven(scheme, m_sub, p, rho, threads):
    res = _coupled_cost_mc(*PAIR, GRID, p, constant_rho(rho), UNEVEN_SAMPLES,
                           SEED, scheme=scheme, m_sub=m_sub, threads=threads,
                           n_batches=4, trunc_k=1)
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


@pytest.mark.parametrize("threads", [1, 3])
def test_one_draw_per_batch(monkeypatch, threads):
    # the traced benchmark times the draw by wrapping this module attribute
    widths = []
    draw = estimate.sample_correlated_pair

    def counting(*args, **kwargs):
        widths.append(kwargs["n_replicates"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(estimate, "sample_correlated_pair", counting)
    _run_uneven("em", 1, 2, 0.5, threads)
    assert sorted(widths) == [500, 501, 501, 501]
