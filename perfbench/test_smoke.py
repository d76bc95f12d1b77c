"""Smoke test of the benchmark itself, at tiny sizes with a fixed seed.

It checks the result schema, every metric name and unit against
BENCHMARK.json, that no operation fails, the exact work counts, the detail
record written at run end, and that values repeat byte for byte (across
runs, and across thread counts for the Monte Carlo workload). It holds no
timing thresholds and sits outside the tier-1 test suite. Run it from the
repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402
from adapted_ot import acceptance, transport  # noqa: E402

SEED = 5
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())



class TreeOracle(workloads.Workload):
    """Tree DP against the causality LPs on random non-Markov scenario trees.

    Not a registered workload: ``causal_lp`` at HiGHS's default tolerances
    misses the tree DP by just over 1e-8 on about 1 pair in 500 (see
    README.md). It stays here as the fixture for the non-Monge side of the
    block count: its DP blocks are small and partly non-Monge.
    """

    name = "tree-oracle"

    def __init__(self, seed, n_pairs=6, n_stages=3, max_branch=4):
        rng = np.random.default_rng(seed)
        self.ops = [{"trees": (acceptance.random_tree(rng, n_stages, max_branch),
                               acceptance.random_tree(rng, n_stages, max_branch))}
                    for _ in range(n_pairs)]
        self.trace_targets = (
            (transport, "tree_bicausal_dp", "transport.dp"),
            (transport, "causal_lp", "transport.lp"),
        )

    def run(self, op):
        mu, nu = op["trees"]
        return (transport.tree_bicausal_dp(mu, nu, p=2),
                transport.metric_suite(mu, nu, p=2))

    def check(self, op, out):
        solution, suite = out
        gap = abs(solution.value - suite.aw)
        if not gap <= 1e-8:
            raise workloads.CheckFailed(f"|tree DP - LP| = {gap:.3e} > 1e-8")
        if not (suite.aw >= suite.scw - 1e-10 and suite.scw >= suite.w - 1e-10
                and suite.scw == max(suite.cw, suite.cw_rev)):
            raise workloads.CheckFailed(f"metric ordering violated: {suite}")

    def values(self, op, out):
        solution, suite = out
        return {"tree_dp": solution.value, "w": suite.w, "cw": suite.cw,
                "cw_rev": suite.cw_rev, "scw": suite.scw, "aw": suite.aw}

    def counts(self, op, out, calls):
        return workloads.dp_block_counts(out[0])


TINY = {
    "lattice-aw": lambda: workloads.LatticeAW(SEED, sizes=((4, 1), (6, 2)),
                                              max_support=10),
    "mc-sync": lambda: workloads.MCSync(SEED, n_steps=8, n_samples=2000,
                                        threads=2),
    "tree-oracle": lambda: TreeOracle(SEED),
    "scheme-paths": lambda: workloads.SchemePaths(SEED, n_replicates=8,
                                                  n_steps=16),
}

# Exact per-pass work counts of the tiny workloads at SEED.
COUNTS = {
    "lattice-aw": {"transport.dp_inner_solves": 652,
                   "transport.dp_inner_cells": 12904,
                   "transport.monge_share": 1.0,
                   "lattice.nodes": 184, "lattice.kernel_nnz": 646},
    "mc-sync": {"noise.rng_calls": 4000, "estimate.replicates": 4000,
                "estimate.diverged": 0},
    "tree-oracle": {"transport.dp_inner_solves": 259,
                    "transport.dp_inner_cells": 1335,
                    "transport.monge_share": 242 / 259},
    "scheme-paths": {"noise.rng_calls": 8, "sde.paths": 24},
}


def test_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == ["lattice-aw", "mc-sync", "scheme-paths"]
    assert list(workloads.WORKLOADS) == names == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_result_schema(name, trace, tmp_path, monkeypatch):
    result, record = run.measure(TINY[name](), SEED, 0.0, trace, [0.5, 0.6, 0.7])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    if trace:
        layers = result["metrics"]
        for key, value in COUNTS[name].items():
            assert layers[key]["value"] == value, key
        if name == "tree-oracle":  # the fast path's fallback side
            assert layers["transport.monge_share"]["value"] < 1
        assert layers["trace.coverage"]["value"] > 0.9
    else:
        assert result["metrics"]["success_rate"]["value"] == 1.0
        assert result["metrics"]["setup_s"]["value"] == 0.6
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    path = run.write_record(record)
    assert path == tmp_path / f"{name}-{SEED}-t{trace}.json"
    written = json.loads(path.read_text())
    assert written["values"] == record["values"]
    assert ("spans" in written) == bool(trace)


@pytest.mark.parametrize("name", list(TINY))
def test_values_repeat_exactly(name):
    first = run.measure(TINY[name](), SEED, 0.0, 0, [1.0])[1]
    second = run.measure(TINY[name](), SEED, 0.0, 0, [1.0])[1]
    assert first["values_sha256"] == second["values_sha256"]


def test_mc_values_do_not_depend_on_threads():
    one = workloads.MCSync(SEED, n_steps=8, n_samples=2000, threads=1)
    two = workloads.MCSync(SEED, n_steps=8, n_samples=2000, threads=2)
    assert (run.measure(one, SEED, 0.0, 0, [1.0])[1]["values"]
            == run.measure(two, SEED, 0.0, 0, [1.0])[1]["values"])


def test_scheme_expectation_matches_closed_forms():
    """The discrete oracle equals the continuous closed form where the EM
    scheme is exact in mean square (constant coefficients)."""
    from adapted_ot import estimate, presets
    for label in ("drift-gap", "vol-gap"):
        coeffs = presets.get_preset(label)
        assert workloads.em_sync_expectation(*coeffs, 64) == pytest.approx(
            estimate.closed_form_cost(*coeffs, p=2), rel=1e-12)
    coeffs = presets.get_preset("ou-vol")
    assert workloads.em_sync_expectation(*coeffs, 64) == pytest.approx(
        0.2872158, abs=5e-8)


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    without printing a result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lattice-aw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
