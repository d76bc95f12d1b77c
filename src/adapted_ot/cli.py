"""Command-line harness: simulation, lattice construction, distance
computation, the experiment drivers, and the acceptance self-test.

Every run writes a JSON sidecar next to its output echoing the fully
resolved configuration and master seed; ``rerun <sidecar>`` reproduces the
run (and its CSV bytes) exactly, whatever the thread count: ``simulate``
and ``counterexample``, which have no ``--threads``, use all usable CPUs.
Floats are printed with 17 significant digits, '.' decimal separator.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 self-test failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimate import (convergence_study, counterexample_nonmarkov, rho_scan,
                       stability_study)
from .lattice import build_lattice, check_fosd
from .model import (AdaptedOTError, ConfigError, DivergenceError,
                    MarkovLattice, DiscretePathMeasure, TimeGrid,
                    check_p, parse_coefficient, constant)
from .noise import constant_rho, map_batches, sample_correlated_pair
from .presets import PRESETS, get_preset, mollified_abs_ladder
from .sde import _SCHEMES, _propagate, _scheme_maps, _step_increments
from .transport import bicausal_dp, coupled_cost, kr_coupling, metric_suite

FLOAT_FMT = "%.17g"

# commands whose output bytes depend on the random streams, which may change
# between versions; their sidecars rerun only under the version that wrote them.
# `lattice` is not one: its values do not depend on the version, so rerunning
# an old `lattice` sidecar rewrites that lattice in this version's file layout
STREAM_COMMANDS = ("simulate", "rho-scan", "convergence", "stability",
                   "counterexample")


def _fmt(x):
    return FLOAT_FMT % float(x)


def _write_csv(path, header, rows):
    """Floats in FLOAT_FMT, anything else by ``str``; a column's type is
    that of its entry in the first row."""
    lines = [",".join(header)]
    if rows:
        row_fmt = ",".join(FLOAT_FMT if isinstance(v, float) else "%s"
                           for v in rows[0])
        lines += [row_fmt % row for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_sidecar(out_path, command, config):
    sidecar = Path(str(out_path) + ".sidecar.json")
    payload = {"command": command, "config": config, "version": __version__}
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return sidecar


def _coeff_pair(args):
    if getattr(args, "preset", None):
        return get_preset(args.preset)
    needed = [args.drift, args.vol, args.drift_y, args.vol_y]
    if any(v is None for v in needed):
        raise ConfigError("provide --preset or all of --drift/--vol/"
                          "--drift-y/--vol-y")
    return (parse_coefficient(args.drift, role="drift"),
            parse_coefficient(args.vol, role="diffusion"),
            parse_coefficient(args.drift_y, role="drift"),
            parse_coefficient(args.vol_y, role="diffusion"))


def _number_list(text, convert, flag):
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of numbers, "
                          f"got {text!r}") from None


def _cmd_simulate(args):
    drift = parse_coefficient(args.drift, role="drift")
    vol = parse_coefficient(args.vol, role="diffusion")
    grid = TimeGrid(args.n_steps)
    barrier, (transform,) = _scheme_maps(args.scheme, grid, args.trunc_k,
                                         args.x0, ((drift, vol),))

    def run_batch(lo, hi, _ws):
        block = sample_correlated_pair(grid, constant_rho(1.0), (args.seed, lo),
                                       m_sub=args.substeps, n_replicates=hi - lo)
        paths, _, stage = _propagate(drift, vol, grid.h,
                                     _step_increments(block.dW, barrier),
                                     args.x0, transform)
        return paths, stage

    paths, stage = (np.concatenate(parts, axis=-1)
                    for parts in zip(*map_batches(run_batch, args.samples)))
    if stage.any():
        rep = int(np.flatnonzero(stage)[0])
        raise DivergenceError(f"replicate {rep} diverged at stage {stage[rep]}")
    times = grid.times().tolist()
    _write_csv(args.out, ["replicate", "t", "value"],
               [(rep, t, v) for rep, path in enumerate(paths.T.tolist())
                for t, v in zip(times, path)])
    return {"n_paths": args.samples}


def _cmd_lattice(args):
    drift = parse_coefficient(args.drift, role="drift")
    vol = parse_coefficient(args.vol, role="diffusion")
    lattice = build_lattice(drift, vol, args.n_steps, args.atoms,
                            args.max_support, trunc_k=args.trunc_k, x0=args.x0)
    Path(args.out).write_text(lattice.to_json() + "\n")
    return {"fosd": check_fosd(lattice).ok,
            "max_support": max(s.size for s in lattice.supports)}


def _cmd_aw_distance(args):
    lat_x = MarkovLattice.from_json(Path(args.lattice_x).read_text())
    lat_y = MarkovLattice.from_json(Path(args.lattice_y).read_text())
    solution = bicausal_dp(lat_x, lat_y, p=args.p, scaled=not args.unscaled)
    kr = coupled_cost(kr_coupling(lat_x, lat_y), p=args.p,
                      scaled=not args.unscaled)
    fosd_x = check_fosd(lat_x)
    fosd_y = check_fosd(lat_y)
    result = {
        "value": solution.value,
        "value_root": solution.value ** (1.0 / args.p),
        "kr_cost": kr,
        "p": args.p,
        "scaled": not args.unscaled,
        "policy_size": sum(vals.size for vals in solution.inner_values),
        "n_simplex": solution.n_simplex,
        "certified_stages": solution.certified_stages,
        "fosd_x": fosd_x.ok,
        "fosd_y": fosd_y.ok,
    }
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"bi-causal value = {_fmt(solution.value)} (KR cost {_fmt(kr)})")
    return result


def _cmd_metrics(args):
    mu = DiscretePathMeasure.from_json(Path(args.tree_mu).read_text())
    nu = DiscretePathMeasure.from_json(Path(args.tree_nu).read_text())
    suite = metric_suite(mu, nu, p=args.p)
    result = {"w": suite.w, "cw": suite.cw, "cw_rev": suite.cw_rev,
              "scw": suite.scw, "aw": suite.aw, "p": args.p}
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return result


def _cmd_rho_scan(args):
    b_x, s_x, b_y, s_y = _coeff_pair(args)
    rhos = _number_list(args.rhos, float, "--rhos")
    rows = rho_scan(b_x, s_x, b_y, s_y, TimeGrid(args.n_steps), args.p, rhos,
                    args.samples, seed=args.seed, threads=args.threads)
    _write_csv(args.out, ["rho", "estimate", "stderr"],
               [(r.rho, r.estimate, r.stderr) for r in rows])
    return {"minimum_at": min(rows, key=lambda r: r.estimate).rho}


def _cmd_convergence(args):
    b_x, s_x, b_y, s_y = _coeff_pair(args)
    n_list = _number_list(args.n_list, int, "--n-list")
    rows = convergence_study(b_x, s_x, b_y, s_y, args.p, n_list, args.atoms,
                             args.max_support, trunc_k=args.trunc_k,
                             mc_samples=args.samples, seed=args.seed,
                             threads=args.threads)
    _write_csv(args.out, ["N", "h", "dp_scaled", "kr_cost", "mc_sync",
                          "mc_stderr"],
               [(r.n_steps, r.h, r.dp_scaled, r.kr_cost, r.mc_sync,
                 r.mc_stderr) for r in rows])
    return {"fosd": [(r.fosd_x, r.fosd_y) for r in rows]}


def _cmd_stability(args):
    b_target, vol, approx = mollified_abs_ladder(args.levels)
    rows, target = stability_study(b_target, vol, approx, constant(0.0), vol,
                                   TimeGrid(args.n_steps), args.p,
                                   args.samples, seed=args.seed,
                                   threads=args.threads)
    _write_csv(args.out, ["level", "estimate", "stderr", "gap"],
               [(r.level, r.estimate, r.stderr, r.gap) for r in rows])
    return {"target": target.estimate, "target_stderr": target.stderr}


def _cmd_counterexample(args):
    sync, asyn = counterexample_nonmarkov(args.level, args.switch_time,
                                          TimeGrid(args.n_steps), p=2,
                                          n_samples=args.samples,
                                          seed=args.seed)
    _write_csv(args.out, ["coupling", "estimate", "stderr"],
               [("sync", sync.estimate, sync.stderr),
                ("async", asyn.estimate, asyn.stderr)])
    return {"async_below_sync": asyn.estimate < sync.estimate}


def _cmd_selftest(args):
    from .acceptance import run_all
    results = run_all(seed=args.seed, quick=args.quick)
    return {"passed": all(r.passed for r in results),
            "failures": [r.name for r in results if not r.passed]}


def _add_pair_flags(sub):
    sub.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sub.add_argument("--drift", default=None, help="coefficient text, e.g. 'kind=ou theta=1'")
    sub.add_argument("--vol", default=None)
    sub.add_argument("--drift-y", dest="drift_y", default=None)
    sub.add_argument("--vol-y", dest="vol_y", default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="adapted-ot", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="simulate scheme paths to CSV")
    sim.add_argument("--drift", required=True)
    sim.add_argument("--vol", required=True)
    sim.add_argument("--n-steps", type=int, required=True)
    sim.add_argument("--scheme", choices=_SCHEMES, default="em")
    sim.add_argument("--trunc-k", type=int, default=4)
    sim.add_argument("--samples", type=int, default=10)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--substeps", type=int, default=16)
    sim.add_argument("--x0", type=float, default=0.0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    lat = subs.add_parser("lattice", help="build a Markov lattice JSON")
    lat.add_argument("--drift", required=True)
    lat.add_argument("--vol", required=True)
    lat.add_argument("--n-steps", type=int, required=True)
    lat.add_argument("--atoms", type=int, default=5)
    lat.add_argument("--max-support", type=int, default=40)
    lat.add_argument("--trunc-k", type=int, default=4)
    lat.add_argument("--x0", type=float, default=0.0)
    lat.add_argument("--out", required=True)
    lat.set_defaults(func=_cmd_lattice)

    aw = subs.add_parser("aw-distance", help="bi-causal DP between lattices")
    aw.add_argument("--lattice-x", required=True)
    aw.add_argument("--lattice-y", required=True)
    aw.add_argument("--p", type=float, default=2.0)
    aw.add_argument("--unscaled", action="store_true",
                    help="stage weights 1 instead of h")
    aw.add_argument("--out", required=True)
    aw.set_defaults(func=_cmd_aw_distance)

    met = subs.add_parser("metrics", help="metric suite on two tree JSONs")
    met.add_argument("--tree-mu", required=True)
    met.add_argument("--tree-nu", required=True)
    met.add_argument("--p", type=float, default=2.0)
    met.add_argument("--out", default=None)
    met.set_defaults(func=_cmd_metrics)

    rho = subs.add_parser("rho-scan", help="coupled cost per correlation")
    _add_pair_flags(rho)
    rho.add_argument("--rhos", default="-1,-0.5,0,0.5,0.9,1")
    rho.add_argument("--p", type=float, default=2.0)
    rho.add_argument("--n-steps", type=int, default=32)
    rho.add_argument("--samples", type=int, default=20000)
    rho.add_argument("--seed", type=int, default=0)
    rho.add_argument("--threads", type=int, default=None)
    rho.add_argument("--out", required=True)
    rho.set_defaults(func=_cmd_rho_scan)

    conv = subs.add_parser("convergence", help="scaled DP vs closed forms")
    _add_pair_flags(conv)
    conv.add_argument("--p", type=float, default=2.0)
    conv.add_argument("--n-list", default="2,4,8,16")
    conv.add_argument("--atoms", type=int, default=5)
    conv.add_argument("--max-support", type=int, default=40)
    conv.add_argument("--trunc-k", type=int, default=4)
    conv.add_argument("--samples", type=int, default=100000)
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--threads", type=int, default=None)
    conv.add_argument("--out", required=True)
    conv.set_defaults(func=_cmd_convergence)

    stab = subs.add_parser("stability", help="mollified-drift stability study")
    stab.add_argument("--levels", type=int, default=6)
    stab.add_argument("--p", type=float, default=2.0)
    stab.add_argument("--n-steps", type=int, default=32)
    stab.add_argument("--samples", type=int, default=20000)
    stab.add_argument("--seed", type=int, default=0)
    stab.add_argument("--threads", type=int, default=None)
    stab.add_argument("--out", required=True)
    stab.set_defaults(func=_cmd_stability)

    ce = subs.add_parser("counterexample", help="sign-switch drift couplings")
    ce.add_argument("--level", type=float, default=5.0)
    ce.add_argument("--switch-time", type=float, default=0.1)
    ce.add_argument("--n-steps", type=int, default=50)
    ce.add_argument("--samples", type=int, default=100000)
    ce.add_argument("--seed", type=int, default=0)
    ce.add_argument("--out", required=True)
    ce.set_defaults(func=_cmd_counterexample)

    st = subs.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--quick", action="store_true",
                    help="reduced sample counts")
    st.add_argument("--seed", type=int, default=7)
    st.set_defaults(func=_cmd_selftest)

    rr = subs.add_parser("rerun", help="reproduce a run from its sidecar")
    rr.add_argument("sidecar")
    return parser


def _run(parser, argv):
    args = parser.parse_args(argv)
    if args.command == "rerun":
        payload = json.loads(Path(args.sidecar).read_text())
        if not (isinstance(payload, dict)
                and isinstance(payload.get("command"), str)
                and isinstance(payload.get("config"), dict)):
            raise ConfigError(f"{args.sidecar} is not a sidecar: it needs a "
                              f"\"command\" string and a \"config\" object")
        version = payload.get("version")
        if payload["command"] in STREAM_COMMANDS and version != __version__:
            raise ConfigError(
                f"sidecar written by adapted-ot {version}, this is "
                f"{__version__}; {payload['command']} output depends on the "
                f"random streams of the version that wrote it, so rerun it "
                f"with adapted-ot {version}")
        replay = [payload["command"]]
        for key, value in payload["config"].items():
            # "scaled" was a no-op aw-distance flag that old sidecars carry
            if key in ("command", "func", "scaled"):
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                if value:
                    replay.append(flag)
            elif value is not None:
                # '=' form so values starting with '-' stay values
                replay.append(f"{flag}={value}")
        return _run(parser, replay)
    if hasattr(args, "p"):
        check_p(args.p)
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "command") and v is not None}
    summary = args.func(args)
    out = getattr(args, "out", None)
    if out:
        _write_sidecar(out, args.command, config)
    if args.command == "selftest":
        return 0 if summary["passed"] else 4
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        return _run(parser, argv)
    except DivergenceError as exc:
        print(f"error: numerical divergence: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdaptedOTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
