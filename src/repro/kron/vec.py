"""Matrix-free Kronecker matvec and power iteration.

The "vec trick": for ``A = A₁ ⊗ ... ⊗ A_N`` and a vector ``x`` viewed as
an N-dimensional tensor with mode sizes ``(m₁, ..., m_N)``,

    (⊗_k A_k) x  =  vec( X ×₁ A₁ ×₂ A₂ ... ×_N A_N )

i.e. one small multiply per mode instead of ever forming A.  Cost is
``O(Σ_k nnz(A_k) · (total / m_k))`` — for star chains a few passes over
the vector — so eigen-estimation runs on products whose *matrix* could
never be built (vector length is the binding constraint, not edge
count).

This implements the paper's "eigenvectors ... future research" item
computationally; :mod:`repro.design.spectrum` provides the closed-form
counterpart and the two are cross-checked in the tests.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import DesignError, ProductTooLargeError, ShapeError
from repro.kron.chain import KroneckerChain
from repro.sparse.convert import as_coo

#: Refuse matvecs on products with more vector entries than this.
MAX_VECTOR_LENGTH = 50_000_000


def chain_matvec(chain: KroneckerChain, x: np.ndarray) -> np.ndarray:
    """``y = (⊗ A_k) x`` without materializing the product.

    Works factor by factor: reshape the running vector so the current
    mode is the leading axis, apply the factor with a sparse-dense
    multiply, move on.  Float64 throughout.
    """
    n = chain.num_vertices
    if n > MAX_VECTOR_LENGTH:
        raise ProductTooLargeError(
            f"product has {n} vertices; matvec vectors of that length "
            f"exceed the {MAX_VECTOR_LENGTH} cap"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ShapeError(f"x must have shape ({n},), got {x.shape}")
    sizes = [m.shape[0] for m in chain.factors]
    # Tensorize: axis k has size m_k, index order matches mixed-radix
    # encoding (most significant digit first).
    tensor = x.reshape(sizes)
    for k, factor in enumerate(chain.factors):
        coo = as_coo(factor)
        moved = np.moveaxis(tensor, k, 0)
        flat = moved.reshape(sizes[k], -1)
        out = np.zeros_like(flat)
        # out[r, :] += v * flat[c, :] for each stored (r, c, v).
        np.add.at(out, coo.rows, coo.vals[:, None].astype(np.float64) * flat[coo.cols])
        tensor = np.moveaxis(out.reshape(moved.shape), 0, k)
    return tensor.reshape(n)


def power_iteration(
    chain: KroneckerChain,
    *,
    max_iterations: int = 200,
    tol: float = 1e-10,
    seed: int = 0,
) -> Tuple[float, np.ndarray, int]:
    """Spectral radius and a dominant vector of a symmetric chain,
    matrix-free.

    Iterates on ``A²`` (two matvecs per step): bipartite star products
    carry paired ``±ρ`` extremes, on which plain power iteration
    oscillates forever, while ``A²``'s leading eigenvalue ``ρ²`` is
    simple-signed and converges.  Returns ``(radius, unit vector in the
    dominant ±ρ eigenspace, iterations used)``.
    """
    n = chain.num_vertices
    if n < 1:
        raise DesignError("chain has no vertices")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    radius_sq = 0.0
    for iteration in range(1, max_iterations + 1):
        w = chain_matvec(chain, chain_matvec(chain, v))
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, v, iteration  # v in the null space of A²; ρ|_v = 0
        w /= norm
        new_radius_sq = float(w @ chain_matvec(chain, chain_matvec(chain, w)))
        if abs(new_radius_sq - radius_sq) <= tol * max(1.0, abs(new_radius_sq)):
            return math_sqrt(new_radius_sq), w, iteration
        radius_sq = new_radius_sq
        v = w
    return math_sqrt(radius_sq), v, max_iterations


def math_sqrt(value: float) -> float:
    """sqrt clamped at zero (Rayleigh quotients can dip -eps below)."""
    return float(np.sqrt(max(value, 0.0)))


def spectral_radius_estimate(chain: KroneckerChain, **kwargs) -> float:
    """Spectral radius of a symmetric chain via A² power iteration."""
    value, _, _ = power_iteration(chain, **kwargs)
    return value


def leading_eigenvector_factors(chain: KroneckerChain) -> List[np.ndarray]:
    """Per-factor leading eigenvectors, whose ⊗ is a leading eigenvector
    of the chain (eigenvectors of a Kronecker product are Kronecker
    products of factor eigenvectors).

    Uses dense ``eigh`` on each (tiny, symmetric) factor.
    """
    vecs: List[np.ndarray] = []
    for factor in chain.factors:
        dense = as_coo(factor).to_dense().astype(np.float64)
        if not np.allclose(dense, dense.T):
            raise DesignError("leading_eigenvector_factors requires symmetric factors")
        values, vectors = np.linalg.eigh(dense)
        lead = int(np.argmax(np.abs(values)))
        vecs.append(vectors[:, lead])
    return vecs
