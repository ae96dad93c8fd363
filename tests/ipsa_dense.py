"""Test-side reference for the IPSA matrix: its columns scattered into one
dense (n_rows, L) array on the common delta-y axis."""

import numpy as np


def dense_values(ipsa):
    """Column i's bin k on row row_offset[i] + k, +0.0 on every other row."""
    K, L = ipsa.values.shape
    dense = np.zeros((ipsa.delta_centers.size, L))
    dense[np.arange(K)[:, None] + ipsa.row_offset, np.arange(L)] = ipsa.values
    return dense
