"""Kernels written as dense matrices in the tests, in the row form that
``MarkovLattice`` stores."""

import numpy as np

from adapted_ot.model import KernelRows


def sparse(dense):
    """The entries of a dense kernel, row after row, its exact zeros
    dropped: the stored form lists no zero mass.  Any other entry, NaN or
    negative, is kept for the constructor to refuse."""
    dense = np.asarray(dense, dtype=float)
    listed = dense != 0
    return KernelRows(listed.sum(axis=1), np.nonzero(listed)[1], dense[listed])
