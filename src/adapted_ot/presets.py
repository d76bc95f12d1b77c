"""Named coefficient pairs used by the experiment drivers and the self-test,
so the reference experiments are one flag away on the command line."""

from __future__ import annotations

import numpy as np

from .model import ConfigError, affine, constant, ou, table

# name -> (drift_x, vol_x, drift_y, vol_y)
PRESETS = {
    # constant drift gap, common unit volatility: sync cost 1/3 at p=2
    "drift-gap": (constant(1.0), constant(1.0, role="diffusion"),
                  constant(0.0), constant(1.0, role="diffusion")),
    # driftless, volatility 1 vs 0.5: sync cost 0.125 at p=2
    "vol-gap": (constant(0.0), constant(1.0, role="diffusion"),
                constant(0.0), constant(0.5, role="diffusion")),
    # mean reversion with a volatility gap: sync cost 0.283834 at p=2
    "ou-vol": (ou(1.0), constant(1.0, role="diffusion"),
               ou(1.0), constant(2.0, role="diffusion")),
    # mean-reverting versus driftless diffusion: sync cost 0.048075 at p=2
    "ou-vs-flat": (ou(1.0), constant(1.0, role="diffusion"),
                   constant(0.0), constant(1.0, role="diffusion")),
    # gentle affine drift against a constant pair: sync cost 0.125 at p=2
    "affine-mix": (affine(0.5, -0.5), constant(1.0, role="diffusion"),
                   constant(0.0), constant(0.5, role="diffusion")),
}

# level j tabulates 16 * 2^j + 2 knots, so each level doubles the ladder's
# memory: 168 MB of peak RSS for ``adapted-ot stability --levels 16`` at its
# defaults (each table keeps its knots and values as tuples and as arrays)
MAX_LADDER_LEVELS = 16


def mollified_abs_ladder(levels):
    """Coefficients of the coefficient-stability study: the drift |x|
    tabulated on [-8, 8] with a knot at 0, and ``levels`` approximations
    whose knots at spacing 2^-j straddle the kink, all with unit volatility;
    at most ``MAX_LADDER_LEVELS`` levels.

    Returns (target drift, volatility, [(drift_j, volatility), ...]).
    """
    if levels > MAX_LADDER_LEVELS:
        raise ConfigError(f"at most {MAX_LADDER_LEVELS} ladder levels, "
                          f"got {levels}")
    knots = np.unique(np.concatenate([np.linspace(-8, 8, 33), [0.0]]))
    vol = constant(1.0, role="diffusion")
    approx = []
    for level in range(levels):
        spacing = 2.0 ** (-level)
        ks = np.concatenate([[-8.0], np.arange(-8 + spacing / 2, 8, spacing),
                             [8.0]])
        approx.append((table(ks, np.abs(ks)), vol))
    return table(knots, np.abs(knots)), vol, approx


def get_preset(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
