import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adapted_ot
from adapted_ot import __version__, cli
from adapted_ot.cli import main
from adapted_ot.model import DiscretePathMeasure, MarkovLattice


def test_simulate_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "paths.csv"
    code = main(["simulate", "--drift", "kind=ou theta=1", "--vol",
                 "kind=constant value=1", "--n-steps", "8", "--samples", "3",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "replicate,t,value"
    assert len(lines) == 1 + 3 * 9
    sidecar = json.loads(Path(str(out) + ".sidecar.json").read_text())
    assert sidecar["command"] == "simulate"
    assert sidecar["config"]["seed"] == 5


SIMULATE_SHA256 = {
    ("em", 1): "1aa51a75c6bc4c529dcab0e51aab3ebb071f5e90b0bcc9ace7bb60596f680d85",
    ("em", 16): "774fadfc8f258be90cbaf286d2ea60d6d5f86faa40bc8e085347655410ab07e1",
    ("monotone-em", 1):
        "5b49520ef01ced6dc8b272eaa4eac18f2b11c3e534fb1558937797dbecdcaf0c",
    ("monotone-em", 16):
        "44216d4daf924711fcc99232a9cf950b244647ac919726822c93f44b1baeac74",
    ("zvonkin-em", 1):
        "b05d3c0fb29cd406bb6239d83f0890fe008b4d0cc3092e4969c5a05cf6ce8f1e",
    ("zvonkin-em", 16):
        "312b8d15800a10991a0a9a29d7c5cc464261ca9cb8219532bc5c5611ba8cd671",
}


# the sign_switch paths as the per-path float recursion wrote them (0.6.0);
# in each file, paths are on both sides of 0 at the switch time
SIGN_SWITCH_SHA256 = {
    ("em", 1): "1e19a95a3d72ca382ac0aac0d6a6f143c938207696a24a665c5b4a0f3a72e8cb",
    ("em", 16): "b165f8b1b343ae22aac8ce8002deca5ad0cbc98e23d5a82c420164dbdbefb8a1",
    ("monotone-em", 1):
        "76f6b4d5a099cc668692b84087219295f7807ede8db5fca05a7e4574158c32c2",
    ("monotone-em", 16):
        "86d2b9dd3a3db120d604de8bf7a02771e544b1e04102710f1501b85e3296fdaf",
}


def _simulate_sha256(tmp_path, drift, scheme, m_sub):
    # K = 1 puts the barrier at about 1.7 increment standard deviations, so
    # the stopped schemes clamp some steps and every file differs
    out = tmp_path / "paths.csv"
    assert main(["simulate", "--drift", drift, "--vol",
                 "kind=constant value=1", "--n-steps", "16", "--samples", "4",
                 "--seed", "5", "--scheme", scheme, "--trunc-k", "1",
                 "--substeps", str(m_sub), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("scheme,m_sub", sorted(SIMULATE_SHA256))
def test_simulate_output_bytes_are_pinned(tmp_path, scheme, m_sub):
    assert (_simulate_sha256(tmp_path, "kind=ou theta=1", scheme, m_sub)
            == SIMULATE_SHA256[scheme, m_sub])


@pytest.mark.parametrize("scheme,m_sub", sorted(SIGN_SWITCH_SHA256))
def test_simulate_sign_switch_output_bytes_are_pinned(tmp_path, scheme, m_sub):
    drift = "kind=sign_switch level=5 switch_time=0.25"
    assert (_simulate_sha256(tmp_path, drift, scheme, m_sub)
            == SIGN_SWITCH_SHA256[scheme, m_sub])


def test_lattice_and_aw_distance_roundtrip(tmp_path):
    lat = tmp_path / "lx.json"
    assert main(["lattice", "--drift", "kind=ou theta=1", "--vol",
                 "kind=constant value=1", "--n-steps", "3", "--atoms", "3",
                 "--max-support", "27", "--out", str(lat)]) == 0
    result = tmp_path / "aw.json"
    assert main(["aw-distance", "--lattice-x", str(lat), "--lattice-y",
                 str(lat), "--p", "2", "--out", str(result)]) == 0
    data = json.loads(result.read_text())
    assert data["value"] == pytest.approx(0.0, abs=1e-12)
    assert data["fosd_x"] and data["fosd_y"]
    assert data["policy_size"] > 0
    # identical lattices: every stage is certified Monge, no simplex solve
    assert data["n_simplex"] == 0 and data["certified_stages"] == 3


def test_aw_distance_reports_simplex_solves_and_certified_stages(tmp_path):
    # the non-monotone pair of ROADMAP item 6 (theta = 12, N = 4)
    lats = []
    for name, drift, vol in (("lx.json", "kind=ou theta=12", "1"),
                             ("ly.json", "kind=constant value=0", "0.5")):
        lats.append(str(tmp_path / name))
        assert main(["lattice", "--drift", drift, "--vol",
                     f"kind=constant value={vol}", "--n-steps", "4", "--atoms",
                     "5", "--max-support", "60", "--out", lats[-1]]) == 0
    out = tmp_path / "aw.json"
    assert main(["aw-distance", "--lattice-x", lats[0], "--lattice-y",
                 lats[1], "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n_simplex"] == 274 and data["certified_stages"] == 2
    assert not data["fosd_x"] and data["fosd_y"]


AW_GOLDEN = {
    # the README's command-line pair (drift 1 against drift 0, vol 1)
    ("kind=constant value=1", "1", "kind=constant value=0", "1", "1"): {
        "certified_stages": 8, "fosd_x": True, "fosd_y": True,
        "kr_cost": 0.5625, "n_simplex": 0, "p": 1.0, "policy_size": 7220,
        "scaled": True, "value": 0.5625, "value_root": 0.5625},
    ("kind=constant value=1", "1", "kind=constant value=0", "1", "2"): {
        "certified_stages": 8, "fosd_x": True, "fosd_y": True,
        "kr_cost": 0.3984375, "n_simplex": 0, "p": 2.0, "policy_size": 7220,
        "scaled": True, "value": 0.39843749999999994,
        "value_root": 0.6312190586476298},
    # the README's library pair (ou(1), vol 1 against drift 0, vol 0.5)
    ("kind=ou theta=1", "1", "kind=constant value=0", "0.5", "2"): {
        "certified_stages": 8, "fosd_x": True, "fosd_y": True,
        "kr_cost": 0.05169139725325071, "n_simplex": 0, "p": 2.0,
        "policy_size": 7751, "scaled": True, "value": 0.05169139725325072,
        "value_root": 0.22735742181255206},
}


@pytest.mark.parametrize("pair", sorted(AW_GOLDEN))
def test_aw_distance_output_bytes_are_pinned(tmp_path, pair):
    # lattices written and read back through the CLI; the file format may
    # change, the DP and KR bits may not
    drift_x, vol_x, drift_y, vol_y, p = pair
    lats = []
    for name, drift, vol in (("lx.json", drift_x, vol_x),
                             ("ly.json", drift_y, vol_y)):
        lats.append(str(tmp_path / name))
        assert main(["lattice", "--drift", drift, "--vol",
                     f"kind=constant value={vol}", "--n-steps", "8",
                     "--atoms", "5", "--max-support", "40",
                     "--out", lats[-1]]) == 0
    out = tmp_path / "aw.json"
    assert main(["aw-distance", "--lattice-x", lats[0], "--lattice-y",
                 lats[1], "--p", p, "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(AW_GOLDEN[pair], indent=2,
                                         sort_keys=True) + "\n"


def test_aw_distance_sidecar_reruns_only_under_its_version(tmp_path, capsys):
    # 0.8.0 sums each quantile plan's value over its staircase cells, which
    # moves some DP values in their last bits: an aw-distance sidecar
    # reruns only under the version that wrote it
    lat = tmp_path / "lat.json"
    assert main(["lattice", *RERUN_ARGS["lattice"], "--out", str(lat)]) == 0
    out = tmp_path / "aw.json"
    assert main(["aw-distance", "--lattice-x", str(lat), "--lattice-y",
                 str(lat), "--out", str(out)]) == 0
    sidecar = Path(str(out) + ".sidecar.json")
    payload = json.loads(sidecar.read_text())
    assert payload["version"] == __version__
    payload["version"] = "0.7.0"
    sidecar.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["rerun", str(sidecar)]) == 2
    err = capsys.readouterr().err
    assert "0.7.0" in err and __version__ in err and "aw-distance" in err


def test_metrics_on_example_trees(tmp_path):
    mu = DiscretePathMeasure(paths=[[0.5, 1.0], [-0.5, -1.0]],
                             weights=[0.5, 0.5])
    nu = DiscretePathMeasure(paths=[[0.0, 1.0], [0.0, -1.0]],
                             weights=[0.5, 0.5])
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    mu_path.write_text(mu.to_json())
    nu_path.write_text(nu.to_json())
    out = tmp_path / "metrics.json"
    assert main(["metrics", "--tree-mu", str(mu_path), "--tree-nu",
                 str(nu_path), "--p", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["aw"] == pytest.approx(2.25, abs=1e-10)
    assert data["w"] == pytest.approx(0.25, abs=1e-10)
    assert data["aw"] >= data["scw"] >= data["w"]


RERUN_ARGS = {
    "simulate": ["--drift", "kind=ou theta=1", "--vol",
                 "kind=constant value=1", "--n-steps", "4", "--scheme",
                 "monotone-em", "--samples", "2", "--seed", "5"],
    "lattice": ["--drift", "kind=ou theta=1", "--vol",
                "kind=constant value=0.5", "--n-steps", "3", "--atoms", "3",
                "--max-support", "6", "--x0=-0.25"],
    "aw-distance": ["--lattice-x", "{lx}", "--lattice-y", "{ly}", "--p",
                    "1.5", "--unscaled"],
    "metrics": ["--tree-mu", "{mu}", "--tree-nu", "{nu}", "--p", "1.5"],
    "rho-scan": ["--preset", "vol-gap", "--rhos=-1,0,1", "--n-steps", "8",
                 "--samples", "400", "--seed", "9"],
    "convergence": ["--preset", "drift-gap", "--n-list", "2,3", "--atoms",
                    "3", "--max-support", "10", "--samples", "200",
                    "--seed", "2"],
    "stability": ["--levels", "2", "--n-steps", "4", "--samples", "200",
                  "--seed", "3"],
    "counterexample": ["--samples", "200", "--n-steps", "10", "--seed", "4"],
}


@pytest.mark.parametrize("command", sorted(RERUN_ARGS))
def test_rerun_reproduces_bytes(tmp_path, command):
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    mu.write_text(DiscretePathMeasure(paths=[[0.5, 1.0], [-0.5, -1.0]],
                                      weights=[0.5, 0.5]).to_json())
    nu.write_text(DiscretePathMeasure(paths=[[0.0, 1.0], [0.0, -1.0]],
                                      weights=[0.25, 0.75]).to_json())
    lx = tmp_path / "lx.json"
    ly = tmp_path / "ly.json"
    for lat, drift in ((lx, "kind=ou theta=1"), (ly, "kind=constant value=0.5")):
        assert main(["lattice", "--drift", drift, "--vol",
                     "kind=constant value=1", "--n-steps", "3", "--atoms",
                     "3", "--max-support", "27", "--out", str(lat)]) == 0
    out = tmp_path / "out"
    args = [a.format(mu=mu, nu=nu, lx=lx, ly=ly) for a in RERUN_ARGS[command]]
    assert main([command, *args, "--out", str(out)]) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(["rerun", str(out) + ".sidecar.json"]) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("command", ["simulate", "lattice", "counterexample"])
def test_rerun_refuses_stream_sidecar_from_another_version(tmp_path, command,
                                                           capsys):
    out = tmp_path / "out"
    assert main([command, *RERUN_ARGS[command], "--out", str(out)]) == 0
    sidecar = Path(str(out) + ".sidecar.json")
    payload = json.loads(sidecar.read_text())
    assert payload["version"] == __version__
    payload["version"] = "0.1.0"
    sidecar.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["rerun", str(sidecar)]) == 2
    err = capsys.readouterr().err
    assert "0.1.0" in err and __version__ in err and command in err


def test_rerun_refuses_rho_scan_sidecar_from_0_3_0(tmp_path, capsys):
    # 0.4.0 moved every Monte Carlo stderr, the rho-scan stderr column too
    out = tmp_path / "out"
    assert main(["rho-scan", *RERUN_ARGS["rho-scan"], "--out", str(out)]) == 0
    sidecar = Path(str(out) + ".sidecar.json")
    payload = json.loads(sidecar.read_text())
    payload["version"] = "0.3.0"
    sidecar.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["rerun", str(sidecar)]) == 2
    assert "0.3.0" in capsys.readouterr().err


def test_version_is_set_in_one_place():
    from setuptools.config.pyprojecttoml import read_configuration
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is beta
        config = read_configuration(pyproject)
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == adapted_ot.__version__


def test_convergence_csv_schema(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--preset", "drift-gap", "--n-list", "2,4",
                 "--atoms", "3", "--max-support", "20", "--samples", "500",
                 "--seed", "2", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "N,h,dp_scaled,kr_cost,mc_sync,mc_stderr"


def test_counterexample_csv(tmp_path):
    out = tmp_path / "ce.csv"
    assert main(["counterexample", "--samples", "500", "--n-steps", "20",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "coupling,estimate,stderr"
    sync_row = rows[1].split(",")
    assert sync_row[0] == "sync"
    assert float(sync_row[1]) == pytest.approx(24.3, abs=1e-9)


def test_counterexample_without_samples_exits_2(tmp_path, capsys):
    out = tmp_path / "ce.csv"
    assert main(["counterexample", "--samples", "0", "--out", str(out)]) == 2
    assert "n_samples" in capsys.readouterr().err
    assert not out.exists()


def test_rho_scan_with_zero_threads_exits_2(tmp_path, capsys):
    out = tmp_path / "rho.csv"
    assert main(["rho-scan", "--preset", "ou-vol", "--samples", "10",
                 "--threads", "0", "--out", str(out)]) == 2
    assert "threads" in capsys.readouterr().err
    assert not out.exists()


OU_PATHS = ["--drift", "kind=ou theta=1", "--vol", "kind=constant value=1"]
SIGN_SWITCH = "kind=sign_switch level=1 switch_time=0.5"
CONFIG_ERRORS = {
    "rho-scan-without-pair": ["rho-scan"],
    "metrics-missing-trees": ["metrics", "--tree-mu", "missing.json",
                              "--tree-nu", "missing.json"],
    "simulate-unknown-kind": ["simulate", "--drift", "kind=warp", "--vol",
                              "kind=constant value=1", "--n-steps", "4"],
    "simulate-zero-samples": ["simulate", *OU_PATHS, "--n-steps", "4",
                              "--samples", "0"],
    "simulate-negative-samples": ["simulate", *OU_PATHS, "--n-steps", "4",
                                  "--samples=-2"],
    "lattice-zero-steps": ["lattice", *OU_PATHS, "--n-steps", "0"],
    "convergence-zero-steps": ["convergence", "--preset", "drift-gap",
                               "--n-list", "0", "--samples", "10"],
    "convergence-empty-n-list": ["convergence", "--preset", "drift-gap",
                                 "--n-list", ",", "--samples", "10"],
    "rho-scan-rhos-not-numbers": ["rho-scan", "--preset", "vol-gap", "--rhos",
                                  "abc", "--samples", "10"],
    "rho-scan-rho-out-of-range": ["rho-scan", "--preset", "vol-gap",
                                  "--rhos=1.5", "--samples", "10"],
    "rho-scan-negative-constant-vol": [
        "rho-scan", "--drift", "kind=constant value=0", "--vol",
        "kind=constant value=-0.5", "--drift-y", "kind=constant value=0",
        "--vol-y", "kind=constant value=1", "--samples", "10"],
    "stability-zero-levels": ["stability", "--levels", "0", "--samples", "10"],
    "stability-negative-levels": ["stability", "--levels=-1", "--samples",
                                  "10"],
    # rejected before the ladder's tables are built: 17 levels would take
    # about 300 MB
    "stability-too-many-levels": ["stability", "--levels", "17", "--samples",
                                  "10"],
    "simulate-nan-x0": ["simulate", *OU_PATHS, "--n-steps", "4", "--x0", "nan"],
    "simulate-nan-coefficient": ["simulate", "--drift",
                                 "kind=constant value=nan", "--vol",
                                 "kind=constant value=1", "--n-steps", "4"],
    "lattice-nan-x0": ["lattice", *OU_PATHS, "--n-steps", "4", "--x0", "nan"],
    "counterexample-nan-level": ["counterexample", "--level", "nan",
                                 "--samples", "10"],
    "counterexample-inf-level": ["counterexample", "--level", "inf",
                                 "--samples", "10"],
    "counterexample-nan-switch-time": ["counterexample", "--switch-time",
                                       "nan", "--samples", "10"],
    # at 0 the drift's sign is sign(W_0) = 0, at 1 its ramp never starts
    "counterexample-zero-switch-time": ["counterexample", "--switch-time",
                                        "0", "--samples", "10"],
    "counterexample-unit-switch-time": ["counterexample", "--switch-time",
                                        "1", "--samples", "10"],
    # a coefficient used outside its domain: a path-dependent drift where a
    # Markovian one is needed, or a table queried outside its knots
    "lattice-sign-switch-drift": ["lattice", "--drift", SIGN_SWITCH, "--vol",
                                  "kind=constant value=1", "--n-steps", "4"],
    "convergence-sign-switch-drift": [
        "convergence", "--drift", SIGN_SWITCH, "--vol", "kind=constant value=1",
        "--drift-y", "kind=constant value=0", "--vol-y",
        "kind=constant value=1", "--samples", "100"],
    # refused before the MC column, which took 2.5 s at a million samples
    "convergence-sign-switch-drift-million-samples": [
        "convergence", "--drift", SIGN_SWITCH, "--vol", "kind=constant value=1",
        "--drift-y", "kind=constant value=0", "--vol-y",
        "kind=constant value=1", "--samples", "1000000"],
    "simulate-sign-switch-vol": ["simulate", "--drift", "kind=constant value=0",
                                 "--vol", SIGN_SWITCH, "--n-steps", "4"],
    "simulate-table-outside-knots": [
        "simulate", "--drift", "kind=table knots=-0.1,0.1 values=0,0", "--vol",
        "kind=constant value=1", "--n-steps", "4"],
    "simulate-zvonkin-table-outside-knots": [
        "simulate", "--drift", "kind=table knots=-1,1 values=0,0", "--vol",
        "kind=constant value=1", "--n-steps", "4", "--scheme", "zvonkin-em"],
}

# commands without --out, rejected before they print anything
NO_OUT_ERRORS = {
    "selftest-negative-seed": ["selftest", "--quick", "--seed=-1"],
}


# sidecars that `rerun` cannot replay
BAD_SIDECARS = {
    "rerun-sidecar-without-command": '{"config": {}}',
    "rerun-sidecar-without-config": '{"command": "lattice"}',
    "rerun-sidecar-not-an-object": '[1, 2]',
    "rerun-sidecar-config-not-an-object": '{"command": "lattice", "config": [1]}',
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS) + sorted(NO_OUT_ERRORS)
                         + sorted(BAD_SIDECARS))
def test_config_errors_exit_2(tmp_path, tmp_path_factory, capsys, case):
    # no traceback, no exit 0 on an empty table: exit 2, one error line and
    # no output
    out = tmp_path / "out.csv"
    if case in BAD_SIDECARS:
        sidecar = tmp_path_factory.mktemp("sidecar") / "out.csv.sidecar.json"
        sidecar.write_text(BAD_SIDECARS[case])
        argv = ["rerun", str(sidecar)]
    elif case in NO_OUT_ERRORS:
        argv = NO_OUT_ERRORS[case]
    else:
        argv = [*CONFIG_ERRORS[case], "--out", str(out)]
    assert main(argv) == 2
    out_text, err = capsys.readouterr()
    assert err.startswith("error: ") and out_text == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["lattice-sign-switch-drift",
                                  "convergence-sign-switch-drift",
                                  "convergence-sign-switch-drift-million-samples"])
def test_a_lattice_refuses_a_path_dependent_drift_by_name(tmp_path, capsys,
                                                          case):
    # it named the Lipschitz certificate that build_lattice computes
    assert main([*CONFIG_ERRORS[case], "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: a lattice needs Markovian "
                                       "coefficients; sign_switch reads the "
                                       "path\n")


def _one_stage(row_sizes, index, weight, support="[0.0, 1.0]"):
    return (f'{{"initial_value": 0.0, "stages": [{{"support": {support}, '
            f'"row_sizes": {row_sizes}, "index": {index}, '
            f'"weight": {weight}}}]}}')


@pytest.mark.parametrize("text", [
    '{"initial_value": 0.0}',
    '{"initial_value": 0.0, "stages": 3}',
    '{"initial_value": null, "stages": []}',
    # the dense layout of 0.5.0 is refused before its support is read
    '{"initial_value": 0.0, "stages": [{"support": [0.0, "a"], '
    '"transition": [[0.5, 0.5]]}]}',
    _one_stage("[2]", "[0, 1]", "[0.5, 0.5]", support='[0.0, "a"]'),
    '[0.0]',
    _one_stage("[2]", "[0, 2]", "[0.5, 0.5]"),          # index out of range
    _one_stage("[2]", "[-1, 0]", "[0.5, 0.5]"),         # negative index
    _one_stage("[2]", "[1, 1]", "[0.5, 0.5]"),          # repeated index
    _one_stage("[2]", "[1, 0]", "[0.5, 0.5]"),          # descending index
    _one_stage("[1, 1]", "[0, 1]", "[0.5, 0.5]"),       # 2 sizes for 1 row
    _one_stage("[1]", "[0, 1]", "[0.5, 0.5]"),          # sum(sizes) != nnz
    _one_stage("[2]", "[0, 1]", "[1.0]"),               # weight != index
    _one_stage("[2]", "[0.0, 1]", "[0.5, 0.5]"),        # float index
    _one_stage("[2]", "[false, true]", "[0.5, 0.5]"),   # bool index
    _one_stage("[2.0]", "[0, 1]", "[0.5, 0.5]"),        # float size
    _one_stage("[2]", "[0, 1]", '["a", 0.5]'),          # non-numeric weight
    _one_stage("[2]", "[0, 1]", "[0.0, 1.0]"),          # a listed zero mass
    # a negative size whose row sizes still add up to the entries
    '{"initial_value": 0.0, "stages": [{"support": [0.0, 1.0], '
    '"row_sizes": [2], "index": [0, 1], "weight": [0.5, 0.5]}, '
    '{"support": [0.0, 1.0, 2.0], "row_sizes": [-1, 3], "index": [0, 1], '
    '"weight": [0.5, 0.5]}]}',
])
def test_aw_distance_malformed_lattice_exits_2(tmp_path, text, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = tmp_path / "good.json"
    assert main(["lattice", "--drift", "kind=ou theta=1", "--vol",
                 "kind=constant value=1", "--n-steps", "2", "--atoms", "2",
                 "--max-support", "4", "--out", str(good)]) == 0
    assert main(["aw-distance", "--lattice-x", str(good), "--lattice-y",
                 str(bad), "--out", str(tmp_path / "aw.json")]) == 2
    expected = ("layout of adapted-ot <= 0.5.0" if '"transition"' in text
                else "malformed lattice JSON")
    assert expected in capsys.readouterr().err


def test_aw_distance_on_zero_stages_needs_the_unscaled_cost(tmp_path, capsys):
    # a lattice of zero stages has no step size h: the scaled cost exits 2
    # (it was a ZeroDivisionError traceback), the unscaled one is 0
    empty = tmp_path / "empty.json"
    empty.write_text('{"initial_value": 0.0, "stages": []}')
    out = tmp_path / "aw.json"
    argv = ["aw-distance", "--lattice-x", str(empty), "--lattice-y",
            str(empty), "--out", str(out)]
    assert main(argv) == 2
    assert "zero stages" in capsys.readouterr().err and not out.exists()
    assert main([*argv, "--unscaled"]) == 0
    result = json.loads(out.read_text())
    assert result["value"] == 0.0 and result["kr_cost"] == 0.0


def test_aw_distance_and_metrics_refuse_nan_masses(tmp_path, capsys):
    # JSON NaN parses, and used to pass every mass check
    good = tmp_path / "good.json"
    good.write_text(_one_stage("[2]", "[0, 1]", "[0.5, 0.5]"))
    bad = tmp_path / "bad.json"
    bad.write_text(_one_stage("[2]", "[0, 1]", "[NaN, 0.5]"))
    assert main(["aw-distance", "--lattice-x", str(good), "--lattice-y",
                 str(bad), "--out", str(tmp_path / "aw.json")]) == 2
    assert "finite" in capsys.readouterr().err
    mu = tmp_path / "mu.json"
    mu.write_text('{"paths": [[0.0], [1.0]], "weights": [0.5, 0.5]}')
    nu = tmp_path / "nu.json"
    nu.write_text('{"paths": [[0.0], [1.0]], "weights": [NaN, 1.0]}')
    assert main(["metrics", "--tree-mu", str(mu), "--tree-nu", str(nu)]) == 2
    assert "finite" in capsys.readouterr().err


def test_aw_distance_refuses_a_lattice_out_of_value_order_before_the_dp(
        tmp_path, capsys, monkeypatch):
    # a lattice may hold its states in any order, but the KR chain, built
    # first, needs value order
    good = tmp_path / "good.json"
    good.write_text(_one_stage("[2]", "[0, 1]", "[0.5, 0.5]"))
    bad = tmp_path / "bad.json"
    bad.write_text(_one_stage("[2]", "[0, 1]", "[0.5, 0.5]",
                              support="[1.0, 0.0]"))
    dp_calls = []
    monkeypatch.setattr(cli, "bicausal_dp", lambda *args, **kw: dp_calls.append(args))
    assert main(["aw-distance", "--lattice-x", str(good), "--lattice-y",
                 str(bad), "--out", str(tmp_path / "aw.json")]) == 2
    assert capsys.readouterr().err == (
        "error: kr_coupling needs stages strictly increasing in value\n")
    assert dp_calls == [] and not (tmp_path / "aw.json").exists()


def test_dense_lattice_of_0_5_0_is_refused_and_lattice_rewrites_it(tmp_path,
                                                                    capsys):
    lat = tmp_path / "lx.json"
    build = ["lattice", *RERUN_ARGS["lattice"], "--out", str(lat)]
    assert main(build) == 0
    new_bytes = lat.read_bytes()
    # the file and sidecar as adapted-ot 0.5.0 wrote them
    lattice = MarkovLattice.from_json(lat.read_text())
    stages = []
    for rows, s, (sizes, index, weight) in zip(
            lattice.supports, lattice.supports[1:], lattice.kernels):
        dense = np.zeros((rows.size, s.size))
        dense[np.repeat(np.arange(rows.size), sizes), index] = weight
        stages.append({"support": s.tolist(), "transition": dense.tolist()})
    lat.write_text(json.dumps({"initial_value": lattice.initial_value,
                               "stages": stages}) + "\n")
    sidecar = Path(str(lat) + ".sidecar.json")
    payload = json.loads(sidecar.read_text())
    payload["version"] = "0.5.0"
    sidecar.write_text(json.dumps(payload))
    out = tmp_path / "aw.json"
    aw = ["aw-distance", "--lattice-x", str(lat), "--lattice-y", str(lat),
          "--out", str(out)]
    capsys.readouterr()
    assert main(aw) == 2
    err = capsys.readouterr().err
    assert "0.5.0" in err and "adapted-ot lattice" in err
    # the quantizer may differ between versions: the 0.5.0 sidecar reruns
    # only under 0.5.0, and this version's `lattice` rebuilds the file
    assert main(["rerun", str(sidecar)]) == 2
    assert "0.5.0" in capsys.readouterr().err
    assert main(build) == 0
    assert lat.read_bytes() == new_bytes
    assert main(aw) == 0


@pytest.mark.parametrize("text", [
    '{"paths": [[0.0, 1.0], [0.0, -1.0]]}',
    '{"paths": [[0.0, 1.0], [0.0]], "weights": [0.5, 0.5]}',
    '{"paths": [[0.0, 1.0]], "weights": {"a": 1.0}}',
])
def test_metrics_malformed_tree_exits_2(tmp_path, text, capsys):
    good = tmp_path / "mu.json"
    good.write_text(DiscretePathMeasure(paths=[[0.0, 1.0], [0.0, -1.0]],
                                        weights=[0.5, 0.5]).to_json())
    bad = tmp_path / "nu.json"
    bad.write_text(text)
    assert main(["metrics", "--tree-mu", str(good), "--tree-nu",
                 str(bad)]) == 2
    assert "malformed path measure JSON" in capsys.readouterr().err


STEEP = ["--drift", "kind=affine intercept=0 slope=240", "--vol",
         "kind=constant value=1"]


@pytest.mark.parametrize("args", [
    ["rho-scan", *STEEP, "--drift-y", "kind=constant value=0", "--vol-y",
     "kind=constant value=1", "--rhos", "1", "--samples", "200"],
    ["simulate", *STEEP, "--samples", "3"],
], ids=["rho-scan", "simulate"])
def test_divergence_exit_3(tmp_path, args):
    # x grows by a factor 31 per step: past 1e8 within 8 steps
    out = tmp_path / "div.csv"
    assert main([*args, "--n-steps", "8", "--seed", "0", "--out", str(out)]) == 3
    assert list(tmp_path.iterdir()) == []


def _run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter on this source."""
    src = str(Path(adapted_ot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


SCIPY_LOADED = ("sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.'))")


def test_import_leaves_slow_scipy_modules_unloaded():
    # scipy.special costs about a quarter of a second of start-up and
    # scipy.stats and scipy.optimize about a second; each is imported only
    # by the one function that needs it
    out = _run_fresh(f"import sys, adapted_ot; print({SCIPY_LOADED}); "
                     f"import adapted_ot.cli; print({SCIPY_LOADED})")
    assert out.splitlines() == ["[]", "[]"]


def test_the_affine_oracles_leave_scipy_unloaded():
    # a benchmark set-up calls them in a cold interpreter, where
    # scipy.linalg alone would cost about 0.16 s and 26 MB
    out = _run_fresh(f"""
import sys
from adapted_ot.estimate import closed_form_cost, em_expected_cost
from adapted_ot.presets import PRESETS
for pair in PRESETS.values():
    closed_form_cost(*pair)
    em_expected_cost(*pair, 8)
print({SCIPY_LOADED})
""")
    assert out.splitlines() == ["[]"]


def test_lattice_leg_runs_without_scipy_and_a_draw_loads_it(tmp_path):
    out = _run_fresh(f"""
import sys
from adapted_ot import noise
from adapted_ot.cli import main
lat = {str(tmp_path / "lx.json")!r}
assert main(["lattice", "--drift", "kind=ou theta=1", "--vol",
             "kind=constant value=1", "--n-steps", "8", "--out", lat]) == 0
assert main(["aw-distance", "--lattice-x", lat, "--lattice-y", lat,
             "--out", {str(tmp_path / "aw.json")!r}]) == 0
print({SCIPY_LOADED})
noise.replicate_normals((1, 0), 4)
print("scipy.special" in sys.modules)
""")
    assert out.splitlines()[-2:] == ["[]", "True"]
