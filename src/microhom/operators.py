"""Linear operators on grid functions with exact transposes.

Every operator carries a matvec and an rmatvec that are exact adjoints of
each other (up to roundoff), so transpose identities hold to machine
precision no matter how deeply operators are composed.  Resolvents are
backed by sparse LU factorizations whose transposed solves reuse the same
factors.
"""

import numpy as np
import scipy.sparse as sp

from .errors import SolveError
from .grids import centered_diff


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
        mat_t = mat.T.tocsr()
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


def identity_op(n, grid=None):
    return DiscreteOperator((n, n), lambda x: x.copy(), lambda x: x.copy(),
                            grid=grid, symmetric=True, label="I")


def diagonal_op(weights, grid=None, label="diag"):
    w = np.asarray(weights, dtype=float).ravel()
    mv = lambda x: w * x
    return DiscreteOperator((w.size, w.size), mv, mv, grid=grid,
                            symmetric=True, label=label)


def roll_op(grid, shift, label="roll"):
    """Exact index rotation on the torus grid; an L2 isometry."""
    shift = tuple(int(s) for s in np.atleast_1d(shift))
    axes = tuple(range(grid.dim))
    shape = grid.shape
    n = grid.size

    def mv(x):
        return np.roll(x.reshape(shape), shift, axis=axes).ravel()

    def rmv(x):
        return np.roll(x.reshape(shape), tuple(-s for s in shift), axis=axes).ravel()

    return DiscreteOperator((n, n), mv, rmv, grid=grid, label=label)


def grad_component_op(grid, axis):
    """Centered difference along one axis; skew-adjoint on the torus."""
    shape = grid.shape
    n = grid.size

    def mv(x):
        return centered_diff(x.reshape(shape), axis, grid.h).ravel()

    def rmv(x):
        return -mv(x)

    return DiscreteOperator((n, n), mv, rmv, grid=grid, label=f"D{axis}")


def gradient_op(grid):
    """Stacked centered gradient: scalar field -> d stacked fields."""
    comps = [grad_component_op(grid, ax) for ax in range(grid.dim)]
    n = grid.size
    d = grid.dim

    def mv(x):
        return np.concatenate([c._mv(x) for c in comps])

    def rmv(x):
        parts = x.reshape(d, n)
        out = np.zeros(n)
        for c, p in zip(comps, parts):
            out += c._rmv(p)
        return out

    return DiscreteOperator((d * n, n), mv, rmv, grid=grid, label="grad")


def h1_gram_op(grid):
    """Gram operator of the discrete H1 inner product: I - sum_m D_m D_m."""
    comps = [grad_component_op(grid, ax) for ax in range(grid.dim)]
    n = grid.size

    def mv(x):
        out = x.copy()
        for c in comps:
            out -= c._mv(c._mv(x))
        return out

    return DiscreteOperator((n, n), mv, mv, grid=grid, symmetric=True, label="gramH1")


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
