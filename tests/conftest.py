import numpy as np
import pytest

from shiftpress import ShiftSystem, Potential
from shiftpress.core import word_matrix


@pytest.fixture
def full2():
    return ShiftSystem.full_shift(2)


@pytest.fixture
def full3():
    return ShiftSystem.full_shift(3)


@pytest.fixture
def golden():
    return ShiftSystem.golden_mean()


@pytest.fixture
def cycle3():
    return ShiftSystem([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def random_sft(rng, alphabet_size, density=0.7):
    """Seeded strongly connected SFT with no stranded symbols."""
    while True:
        T = rng.random((alphabet_size, alphabet_size)) < density
        try:
            s = ShiftSystem(T)
        except Exception:
            continue
        if s.strongly_connected():
            return s


def random_potential(rng, sys, memory, low=0.0, high=1.0):
    words = [tuple(int(x) for x in row) for row in word_matrix(sys, memory)]
    return Potential(sys, memory, {w: float(rng.uniform(low, high)) for w in words})


def least_path_lengths(sys):
    """Independent connector-length oracle: K[a][b] is the least k >= 1 with
    (T^k)[a][b] > 0, from boolean matrix powers (0 when b is unreachable from
    a). A shortest nonempty path has at most A steps."""
    A = sys.alphabet_size
    T = sys.transitions.astype(np.int64)
    K = np.zeros((A, A), dtype=np.int64)
    P = np.eye(A, dtype=np.int64)
    for k in range(1, A + 1):
        P = (P @ T > 0).astype(np.int64)
        K[(K == 0) & (P > 0)] = k
    return K
