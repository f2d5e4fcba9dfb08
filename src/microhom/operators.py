"""Linear operators on grid functions with exact transposes.

Every operator carries a matvec and an rmatvec that are exact adjoints of
each other (up to roundoff), so transpose identities hold to machine
precision no matter how deeply operators are composed.  Fixed stencils
(centered differences, lattice averages, corrector quadratures) are CSR
matrices whose transposes are exact by construction.  Resolvents are
backed by sparse LU factorizations whose transposed solves reuse the same
factors.
"""

import numpy as np
import scipy.sparse as sp

from .errors import SolveError


class DiscreteOperator:
    """Linear map on flattened grid-function vectors."""

    def __init__(self, shape, matvec, rmatvec, grid=None, symmetric=False, label="op"):
        self.shape = shape
        self._mv = matvec
        self._rmv = rmatvec
        self.grid = grid
        self.symmetric = symmetric
        self.label = label

    # -- application ------------------------------------------------------
    def apply(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.shape[1]:
            raise ValueError(f"{self.label}: size {x.size} != {self.shape[1]}")
        return self._mv(x)

    def apply_transpose(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.shape[0]:
            raise ValueError(f"{self.label}^T: size {x.size} != {self.shape[0]}")
        return self._rmv(x)

    def __call__(self, x):
        return self.apply(x)

    # -- algebra ----------------------------------------------------------
    @property
    def T(self):
        return DiscreteOperator((self.shape[1], self.shape[0]),
                                self._rmv, self._mv, grid=self.grid,
                                symmetric=self.symmetric, label=self.label + "^T")

    def __matmul__(self, other):
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"compose: {self.shape} @ {other.shape}")
        return DiscreteOperator(
            (self.shape[0], other.shape[1]),
            lambda x: self._mv(other._mv(x)),
            lambda x: other._rmv(self._rmv(x)),
            grid=self.grid or other.grid,
            label=f"({self.label}@{other.label})")

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"add: {self.shape} vs {other.shape}")
        return DiscreteOperator(
            self.shape,
            lambda x: self._mv(x) + other._mv(x),
            lambda x: self._rmv(x) + other._rmv(x),
            grid=self.grid or other.grid,
            symmetric=self.symmetric and other.symmetric,
            label=f"({self.label}+{other.label})")

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        s = float(scalar)
        return DiscreteOperator(
            self.shape,
            lambda x: s * self._mv(x),
            lambda x: s * self._rmv(x),
            grid=self.grid, symmetric=self.symmetric,
            label=f"({scalar}*{self.label})")

    def __neg__(self):
        return (-1.0) * self

    # -- materialization (test utility) -----------------------------------
    def to_dense(self, max_size=4096):
        n_out, n_in = self.shape
        if n_in > max_size:
            raise ValueError(f"refusing to densify {self.shape}")
        cols = [self._mv(e) for e in np.eye(n_in)]
        return np.stack(cols, axis=1)


# -- constructors ----------------------------------------------------------

def matrix_op(mat, grid=None, symmetric=False, label="mat"):
    """Wrap a scipy sparse or dense matrix."""
    if sp.issparse(mat):
        mat = mat.tocsr()
        mat_t = mat.T  # a CSC view sharing the arrays, not a copy
        op = DiscreteOperator(mat.shape, lambda x: mat @ x, lambda x: mat_t @ x,
                              grid=grid, symmetric=symmetric, label=label)
    else:
        mat = np.asarray(mat, dtype=float)
        op = DiscreteOperator(mat.shape, lambda x: mat @ x, lambda x: mat.T @ x,
                              grid=grid, symmetric=symmetric, label=label)
    op.matrix = mat
    return op


def lu_solve_op(mat, grid=None, label="inv"):
    """Inverse of a sparse matrix via LU; transposed solves share the factors."""
    import scipy.sparse.linalg as spla
    lu = spla.splu(mat.tocsc())
    n = mat.shape[0]
    op = DiscreteOperator((n, n),
                          lambda x: lu.solve(x),
                          lambda x: lu.solve(x, trans="T"),
                          grid=grid, label=label)
    op.lu = lu
    return op


def stencil_matrix(grid, offsets, coeffs):
    """CSR matrix of a periodic row stencil: (S u)(x) = sum_k c_k(x) u(x + o_k).

    offsets: (K, d) integer node offsets o_k; coeffs: an iterable (consumed
    once, so a generator keeps only one term alive) of K scalars or
    flattened (N,) arrays c_k.  Offsets equal modulo the grid are merged,
    so every row stores one entry per distinct offset in the same order.
    """
    d, n = grid.dim, grid.size
    offsets = np.mod(np.asarray(offsets, dtype=int).reshape(-1, d), grid.n)
    uniq, slot = np.unique(offsets, axis=0, return_inverse=True)
    width = len(uniq)
    data = np.zeros((n, width))
    for k, c in zip(slot.ravel(), coeffs):
        data[:, k] += c
    nodes = np.indices(grid.shape).reshape(d, n, 1)
    cols = np.ravel_multi_index(tuple(nodes + uniq.T[:, None, :]), grid.shape,
                                mode="wrap")
    indptr = np.arange(0, n * width + 1, width, dtype=np.int32)
    return sp.csr_matrix((data.ravel(), cols.astype(np.int32).ravel(), indptr),
                         shape=(n, n))


def diff_matrix(grid, axis):
    """CSR centered difference (u(x + e) - u(x - e)) / 2h along one axis."""
    e = np.eye(grid.dim, dtype=int)[axis]
    c = 1.0 / (2.0 * grid.h)
    return stencil_matrix(grid, [e, -e], [c, -c])


def h1_gram_op(grid):
    """Gram operator of the discrete H1 inner product: I - sum_m D_m D_m."""
    mat = sp.identity(grid.size, format="csr")
    for ax in range(grid.dim):
        dm = diff_matrix(grid, ax)
        mat = mat - dm @ dm
    return matrix_op(mat, grid=grid, symmetric=True, label="gramH1")


# -- norms ------------------------------------------------------------------

def operator_norm(op, tol=1e-6, maxiter=400, seed=0, gram=None, block=3, atol=0.0):
    """Largest singular value by block power iteration on M^T M.

    With `gram` given (a symmetric positive operator G), estimates the
    operator norm measured in the G-inner product on the output side,
    i.e. the largest eigenvalue of M^T G M, square-rooted.  The block
    (orthogonal) iteration with Rayleigh-Ritz extraction keeps convergence
    fast when the top singular values cluster; it stops once the leading
    estimate's change falls below tol * estimate + atol and raises
    SolveError if the budget runs out first or the Ritz values are not
    finite.  Operators that cancel to the
    roundoff floor never stabilize in the relative sense, so give them a
    small atol.
    """
    n = op.shape[1]
    block = max(1, min(block, n))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, block)))
    est = 0.0
    for _ in range(maxiter):
        z = np.empty_like(q)
        for c in range(block):
            w = op.apply(q[:, c])
            if gram is not None:
                w = gram.apply(w)
            z[:, c] = op.apply_transpose(w)
        ritz = q.T @ z                      # Rayleigh-Ritz for M^T G M
        if not np.all(np.isfinite(ritz)):
            # a broken operator must not read as zero error
            raise SolveError(f"operator_norm: non-finite Ritz values for {op.label}")
        lam = float(np.linalg.eigvalsh(0.5 * (ritz + ritz.T)).max())
        if lam <= 0.0:
            return 0.0
        new_est = np.sqrt(lam)
        if est > 0 and abs(new_est - est) <= tol * new_est + atol:
            return new_est
        est = new_est
        q, r = np.linalg.qr(z)
        if np.linalg.norm(np.diag(r)) == 0.0:
            return 0.0
    raise SolveError(f"operator_norm: no convergence to rel. tol {tol:g} "
                     f"within {maxiter} iterations (last estimate {est:.6e})")


def transpose_defect(op, n_trials=5, seed=0):
    """Max relative defect of <M f, h> = <f, M^T h> over random vectors.

    The defect is scaled by ||Mf|| ||h|| + ||f|| ||M^T h||, so it measures
    the pairing mismatch against the operator's own magnitude (a value-
    relative scale would blow up on operators that are numerically zero).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        f = rng.standard_normal(op.shape[1])
        h = rng.standard_normal(op.shape[0])
        mf = op.apply(f)
        mth = op.apply_transpose(h)
        a = float(np.dot(mf, h))
        b = float(np.dot(f, mth))
        scale = (np.linalg.norm(mf) * np.linalg.norm(h)
                 + np.linalg.norm(f) * np.linalg.norm(mth))
        if scale == 0.0:
            continue
        worst = max(worst, abs(a - b) / scale)
    return worst
