"""Central finite-difference gradient oracle shared by the autodiff tests."""

import numpy as np

from transecg import autodiff as ad
from transecg.autodiff import Tensor


def project(out, w=None):
    """The scalar sum(w * out) as a taped reshape and matmul, w all ones by
    default: a loss that hands `out` the gradient w exactly."""
    w = np.ones(out.shape) if w is None else np.asarray(w, dtype=np.float64)
    flat = ad.matmul(out.reshape((1, out.size)), Tensor(w.reshape(out.size, 1)))
    return flat.reshape(())


def fd_gradient(fn, arrays, wrt, eps=1e-6):
    """Numeric d fn(arrays)/d arrays[wrt] by central differences.

    `fn` maps a list of numpy arrays to a scalar float and must not mutate
    its inputs.
    """
    base = [a.copy() for a in arrays]
    g = np.zeros_like(base[wrt])
    flat = g.reshape(-1)
    target = base[wrt].reshape(-1)
    for j in range(target.size):
        orig = target[j]
        target[j] = orig + eps
        hi = fn(base)
        target[j] = orig - eps
        lo = fn(base)
        target[j] = orig
        flat[j] = (hi - lo) / (2 * eps)
    return g


def rel_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-6)
    return np.linalg.norm(a - b) / denom
