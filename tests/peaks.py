"""Peak finding on sampled spectra, shared by the spectrum tests."""

import numpy as np


def find_peaks(omega: np.ndarray, A: np.ndarray, min_height: float = 0.0):
    """Local maxima with parabolic refinement; returns (positions, heights)."""
    pos, hts = [], []
    for i in range(1, A.size - 1):
        if A[i] > A[i - 1] and A[i] >= A[i + 1] and A[i] > min_height:
            denom = A[i - 1] - 2.0 * A[i] + A[i + 1]
            if denom < 0:
                shift = 0.5 * (A[i - 1] - A[i + 1]) / denom
                pos.append(omega[i] + shift * (omega[i] - omega[i - 1]))
                hts.append(A[i] - 0.25 * (A[i - 1] - A[i + 1]) * shift)
            else:
                pos.append(omega[i])
                hts.append(A[i])
    return np.array(pos), np.array(hts)
