"""Linear operators on grid functions with exact transposes.

Every operator is a scipy `LinearOperator` whose matvec and rmatvec are
exact adjoints of each other (up to roundoff), so transpose identities hold
to machine precision however scipy composes them (`@`, `+`, `-`, scalar
`*`, `.T`).  Fixed stencils (centered differences, lattice averages,
corrector quadratures) are CSR matrices whose transposes are exact by
construction.  Resolvents are backed by sparse LU factorizations whose
transposed solves reuse the same factors.  Norms are thick-restart Lanczos
estimates on the normal operator M^T G M, applied one vector at a time and
tested for convergence after every application.  The transpose check
applies each operator once per side to an (N, k) block of trial vectors:
a resolvent's block is one multi-right-hand-side LU solve and a matrix's
one sparse product, and both equal the column-by-column results bit for
bit.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dsyevr

from .errors import SolveError


class DiscreteOperator(spla.LinearOperator):
    """Linear map on flattened grid-function vectors.

    `_mv`/`_rmv` take a vector or an (N, k) block of column vectors, and
    `_matmat`/`_rmatmat` pass a block to them whole, so a product operator
    built by scipy's `@` hands the block on from factor to factor.  scipy
    reaches `apply`/`apply_transpose` and the block methods, and they reach
    `_mv`/`_rmv`, by attribute lookup at each call, so code that replaces
    any of these on an instance (to count applications or solves) sees
    every use of it, composites and `.T` included.
    """

    def __init__(self, shape, matvec, rmatvec, grid=None, label="op"):
        super().__init__(float, shape)
        self._mv = matvec
        self._rmv = rmatvec
        self.grid = grid
        self.label = label

    def _matvec(self, x):
        return self.apply(x)

    def _rmatvec(self, x):
        return self.apply_transpose(x)

    def _matmat(self, x):
        return self._mv(np.asarray(x, dtype=float))

    def _rmatmat(self, x):
        return self._rmv(np.asarray(x, dtype=float))

    def apply(self, x):
        return self._mv(np.asarray(x, dtype=float).ravel())

    def apply_transpose(self, x):
        return self._rmv(np.asarray(x, dtype=float).ravel())


def matrix_op(mat, grid=None, label="mat"):
    """Wrap a scipy sparse or dense matrix."""
    mat = mat.tocsr() if sp.issparse(mat) else np.asarray(mat, dtype=float)
    mat_t = mat.T  # a view sharing the arrays, not a copy
    op = DiscreteOperator(mat.shape, lambda x: mat @ x, lambda x: mat_t @ x,
                          grid=grid, label=label)
    op.matrix = mat
    return op


def stencil_matrix(grid, offsets, coeffs, blocks=1, sets=None):
    """CSR matrix of a periodic row stencil: (S u)(x) = sum_k c_k(x) u(x + o_k).

    offsets: (K, d) integer node offsets o_k; coeffs: an iterable (consumed
    once, so a generator keeps only one term alive) of K scalars or
    flattened (blocks * N,) arrays c_k, one grid copy after another: the
    matrix is block diagonal.  Offsets equal modulo the grid are merged, so
    every row stores one entry per distinct offset in the same order.  With
    `sets` = S every c_k is (S, blocks * N), and a list of S matrices sharing
    one indptr and indices array comes back, each filled in place.
    """
    d, n = grid.dim, grid.size
    offsets = np.mod(np.asarray(offsets, dtype=int).reshape(-1, d), grid.n)
    uniq, slot = np.unique(offsets, axis=0, return_inverse=True)
    width = len(uniq)
    data = np.zeros((sets or 1, blocks * n, width))
    for k, c in zip(slot.ravel(), coeffs):
        data[..., k] += c
    del coeffs  # a generator left suspended at its last term holds that term's buffers
    # C-order flat columns, built in int32 one axis at a time from the (n, width)
    # table of that axis's wrapped node indices, broadcast along the other axes
    cols = np.zeros(grid.shape + (width,), dtype=np.int32)
    for ax in range(d):
        wrapped = np.add.outer(np.arange(grid.n, dtype=np.int32), uniq[:, ax].astype(np.int32))
        wrapped %= grid.n
        cols *= grid.n
        cols += wrapped.reshape((grid.n,) + (1,) * (d - 1 - ax) + (width,))
    cols = cols.reshape(n, width)
    if blocks > 1:
        cols = cols + np.int32(n) * np.arange(blocks, dtype=np.int32)[:, None, None]
    indptr = np.arange(blocks * n + 1, dtype=np.int32) * np.int32(width)  # width 0: empty
    mats = [sp.csr_matrix((v.ravel(), cols.ravel(), indptr), shape=(len(v),) * 2) for v in data]
    return mats if sets else mats[0]


def diff_matrix(grid, axis):
    """CSR centered difference (u(x + e) - u(x - e)) / 2h along one axis."""
    e = np.eye(grid.dim, dtype=int)[axis]
    c = 1.0 / (2.0 * grid.h)
    return stencil_matrix(grid, [e, -e], [c, -c])


def h1_gram_op(grid):
    """Gram operator of the discrete H1 inner product: I - sum_m D_m D_m.

    One CSR matrix, built as one stencil: D_m D_m u = c (u(x + 2 e_m) -
    2 u(x) + u(x - 2 e_m)) with c = (2h)^-2, the diagonal summed 1 + 2c +
    2c + ... in the order the matrix products would sum it.
    `operator_norm(op, gram=...)` applies it once per normal-operator
    application to measure op's norm in L2 -> H1.
    """
    step = 1.0 / (2.0 * grid.h)
    c = step * step
    zero, e = np.zeros(grid.dim, dtype=int), 2 * np.eye(grid.dim, dtype=int)
    offsets = [zero] + [o for m in range(grid.dim) for o in (zero, e[m], -e[m])]
    mat = stencil_matrix(grid, offsets, [1.0] + [2.0 * c, -c, -c] * grid.dim)
    return matrix_op(mat, grid=grid, label="gramH1")


# -- norms ------------------------------------------------------------------

# Lanczos vectors kept between thick restarts (ARPACK's default for one
# eigenvalue); operators with at most this many columns are assembled instead
_NCV = 20


def operator_norm(op, tol=1e-6, maxiter=400, seed=0, gram=None, atol=0.0, info=None):
    """Largest singular value by thick-restart Lanczos on the normal operator.

    With `gram` given (a symmetric positive operator G), estimates the
    operator norm measured in the G-inner product on the output side, i.e.
    the largest eigenvalue of N = M^T G M, square-rooted.  `op` is any
    scipy LinearOperator; N is applied one vector at a time through the
    unchecked _matvec and _rmatvec of `op` and `gram` (a DiscreteOperator's
    reach its `apply` and `apply_transpose`), and `maxiter` bounds the
    number of applications of N.  The start vector is one application of N
    to a `seed`-drawn Gaussian vector, and N is scaled by the size of that
    application so its top eigenvalue is at least 1.  Thick-restart Lanczos
    from there (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000), with full
    reorthogonalization, tests its top Ritz pair (theta, s) after every
    application as ARPACK does: it stops once beta |s_m| <= tol * theta,
    beta the norm of the new residual vector and s_m the last entry of s.  beta |s_m| is the Ritz
    residual ||N v - theta v||, which bounds the distance from theta to an
    eigenvalue of N.  Only that pair is computed, by one LAPACK dsyevr call
    on the index range of the largest eigenvalue of the projected matrix T;
    at a full basis of _NCV vectors the same call returns the top _NCV // 2
    pairs, and the basis restarts from those Ritz vectors.  Every new
    vector is orthogonalized twice against the basis (classical
    Gram-Schmidt).  `atol` adds an absolute tolerance on the norm,
    for operators that cancel to the roundoff floor and so never converge
    in the relative sense.

    Raises SolveError when the budget runs out, on non-finite values and
    when dsyevr fails.
    An operator whose first application is exactly zero has norm 0.0.
    Operators with at most _NCV columns are assembled and solved densely.
    `info`, when a dict, receives the number of applications of N under
    "applications" and beta |s_m| / theta at the stop under "residual"
    (0.0 when nothing was iterated, nan when the stop never passed).
    """
    n = op.shape[1]
    label = getattr(op, "label", op)
    count = [0]
    resid = float("nan")

    def normal(x):
        if count[0] >= maxiter:
            raise SolveError(f"operator_norm: no convergence to rel. tol {tol:g} "
                             f"within {maxiter} applications for {label}")
        count[0] += 1
        # the unchecked products (scipy's matvec checks shapes on every call)
        w = op._matvec(x)
        if gram is not None:
            w = gram._matvec(w)
        z = np.ravel(op._rmatvec(w))
        if not np.isfinite(z).all():
            # a broken operator must not read as zero error
            raise SolveError(f"operator_norm: non-finite values for {label}")
        return z

    try:
        if n <= _NCV:
            mat = np.stack([normal(e) for e in np.eye(n)], axis=1)
            lam, resid = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[-1]), 0.0
        else:
            x0 = np.random.default_rng(seed).standard_normal(n)
            basis, t = np.empty((_NCV, n)), np.zeros((_NCV, _NCV))
            basis[0] = normal(x0 / np.linalg.norm(x0))
            scale = float(np.linalg.norm(basis[0]))
            if scale == 0.0:
                resid = 0.0
                return 0.0
            basis[0] /= scale
            rel, j = tol + atol / np.sqrt(scale), 0
            while True:
                w = normal(basis[j]) / scale
                for _ in range(2):  # Gram-Schmidt twice against lost orthogonality
                    c = basis[:j + 1] @ w
                    w -= c @ basis[:j + 1]
                    t[j, j] += c[j]
                beta = float(np.linalg.norm(w))
                # the top Ritz pair; at a full basis the top _NCV // 2 to restart from
                top = j + 1 if j + 1 < _NCV else j + 2 - _NCV // 2
                theta, s, m, _, fail = dsyevr(t[:j + 1, :j + 1], range="I", il=top, iu=j + 1)
                if fail:
                    raise SolveError(f"operator_norm: dsyevr failed (info {fail}) for {label}")
                theta = theta[:m]
                if beta * abs(s[j, -1]) <= rel * theta[-1]:
                    break
                if j + 1 < _NCV:
                    t[j, j + 1] = t[j + 1, j] = beta
                    j += 1
                else:  # thick restart: T holds the kept Ritz values, coupled to w
                    j = m
                    basis[:j] = s.T @ basis
                    t[:] = 0.0
                    t[range(j), range(j)] = theta
                    t[j, :j] = t[:j, j] = beta * s[-1]
                basis[j] = w / beta
            lam, resid = float(theta[-1]) * scale, float(beta * abs(s[j, -1]) / theta[-1])
    finally:
        if info is not None:
            info["applications"] = count[0]
            info["residual"] = resid
    return float(np.sqrt(max(lam, 0.0)))


def transpose_defect(ops, n_trials=5, seed=0):
    """Max relative defects of <M f, h> = <f, M^T h> over random vectors,
    one per operator M of the sequence `ops` (all of one shape).

    The defect is scaled by ||Mf|| ||h|| + ||f|| ||M^T h||, so it measures
    the pairing mismatch against the operator's own magnitude (a value-
    relative scale would blow up on operators that are numerically zero).
    The trial vectors are drawn once, f_1, h_1, f_2, h_2, ..., so every
    operator is checked on the same ones (their norms taken once), and each
    operator is applied once per side to the (N, n_trials) block through
    the unchecked _matmat and _rmatmat; each trial's defect reads
    contiguous columns, so it equals that of a one-vector application
    wherever the block is bitwise column by column (LU solves and sparse
    products are).  A non-finite block raises SolveError, not a zero defect.
    """
    ops = list(ops)
    shape = ops[0].shape
    rng = np.random.default_rng(seed)
    f, h = np.empty((n_trials, shape[1])), np.empty((n_trials, shape[0]))
    for i in range(n_trials):
        f[i] = rng.standard_normal(shape[1])
        h[i] = rng.standard_normal(shape[0])
    trials = [(fi, hi, np.linalg.norm(fi), np.linalg.norm(hi)) for fi, hi in zip(f, h)]
    worst = []
    for op in ops:
        # (n_trials, N) with each trial's image a contiguous row
        mfs = np.ascontiguousarray(op._matmat(f.T).T)
        mths = np.ascontiguousarray(op._rmatmat(h.T).T)
        if not (np.isfinite(mfs).all() and np.isfinite(mths).all()):
            raise SolveError(f"transpose_defect: non-finite values for {getattr(op, 'label', op)}")
        defect = 0.0
        for (fi, hi, f_norm, h_norm), mf, mth in zip(trials, mfs, mths):
            a = float(np.dot(mf, hi))
            b = float(np.dot(fi, mth))
            scale = np.linalg.norm(mf) * h_norm + f_norm * np.linalg.norm(mth)
            if scale == 0.0:
                continue
            defect = max(defect, abs(a - b) / scale)
        worst.append(defect)
    return worst
