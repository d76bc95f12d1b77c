import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import adapted_ot
from adapted_ot import __version__
from adapted_ot.cli import main
from adapted_ot.model import DiscretePathMeasure


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


def test_aw_distance_old_sidecar_reruns_to_same_bytes(tmp_path):
    # sidecars from before the no-op --scaled flag was removed carry
    # "scaled": true and must still reproduce the output bytes
    lats = []
    for name, drift in (("lx.json", "kind=ou theta=1"),
                        ("ly.json", "kind=constant value=0.5")):
        lats.append(str(tmp_path / name))
        assert main(["lattice", "--drift", drift, "--vol",
                     "kind=constant value=1", "--n-steps", "3", "--atoms",
                     "3", "--max-support", "27", "--out", lats[-1]]) == 0
    out = tmp_path / "aw.json"
    assert main(["aw-distance", "--lattice-x", lats[0], "--lattice-y",
                 lats[1], "--out", str(out)]) == 0
    first = out.read_bytes()
    sidecar = Path(str(out) + ".sidecar.json")
    payload = json.loads(sidecar.read_text())
    assert "scaled" not in payload["config"]
    payload["config"]["scaled"] = True
    sidecar.write_text(json.dumps(payload))
    out.unlink()
    assert main(["rerun", str(sidecar)]) == 0
    assert out.read_bytes() == first


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
    out = tmp_path / "out"
    args = [a.format(mu=mu, nu=nu) for a in RERUN_ARGS[command]]
    assert main([command, *args, "--out", str(out)]) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(["rerun", str(out) + ".sidecar.json"]) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("command", ["simulate", "counterexample"])
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


def test_config_errors_exit_2(tmp_path):
    assert main(["rho-scan", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["metrics", "--tree-mu", "missing.json", "--tree-nu",
                 "missing.json"]) == 2
    assert main(["simulate", "--drift", "kind=warp", "--vol",
                 "kind=constant value=1", "--n-steps", "4",
                 "--out", str(tmp_path / "y.csv")]) == 2


@pytest.mark.parametrize("text", [
    '{"initial_value": 0.0}',
    '{"initial_value": 0.0, "stages": 3}',
    '{"initial_value": null, "stages": []}',
    '{"initial_value": 0.0, "stages": [{"support": [0.0, "a"], '
    '"transition": [[0.5, 0.5]]}]}',
    '[0.0]',
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
    assert "malformed lattice JSON" in capsys.readouterr().err


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


def test_divergence_exit_3(tmp_path):
    out = tmp_path / "div.csv"
    code = main(["rho-scan", "--drift", "kind=affine intercept=0 slope=240",
                 "--vol", "kind=constant value=1", "--drift-y",
                 "kind=constant value=0", "--vol-y", "kind=constant value=1",
                 "--rhos", "1", "--n-steps", "8", "--samples", "200",
                 "--seed", "0", "--out", str(out)])
    assert code == 3


def test_import_leaves_slow_scipy_modules_unloaded():
    # scipy.stats, scipy.optimize and scipy.integrate cost about a second of
    # start-up, scipy.sparse about 40 ms; each is imported only by the one
    # function that needs it
    src = str(Path(adapted_ot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, adapted_ot; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'], "
            "['scipy', 'integrate'], ['scipy', 'sparse'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
