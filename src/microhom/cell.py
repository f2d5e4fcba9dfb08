"""Periodic cell problems on the unit cell and their slow-parameter tables.

For each slow sample x and direction j this solves

    div_y[ a(x, y) (e^j + grad_y chi^j(x, y)) ] = 0,   <chi^j(x, .)> = 0,

periodically in y, together with the adjoint problems (coefficient a^T).
Smooth coefficients use Fourier collocation, iterated by lgmres from zero
on the half spectrum with the Green operator of the Laplacian as right
preconditioner; discontinuous laminates use conservative finite volumes
(one flux and its divergence give right-hand side, residual and column),
a group of slow samples in one direct sparse solve whose factor also
serves the adjoint.
"""

import os
import struct
from dataclasses import dataclass
from itertools import permutations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import assemble_diffusion, factor, sample_coefficient
from .errors import SolveError
from .grids import TorusGrid, centered_diff
from .spectral import calculus

_LGMRES_CALLS = 300  # outer lgmres iterations allowed per spectral block solve
# cell unknowns of a group of slow samples (one FV factor, one moments pass)
_GROUP_UNKNOWNS = 2 ** 16


class SpectralCellSolver:
    """Fourier collocation for div_y[a (e^j + grad chi)] = 0 on one cell.

    The unknown y is the half spectrum in Parseval-weighted real coordinates
    (`FourierCalculus.pack`), right-preconditioned by the Green operator
    (Moulinec-Suquet): chi_hat = |2 pi k|^-2 y, so the operator's spectrum is
    controlled by the ellipticity bounds alone and one application costs d
    inverse and d forward transforms.  The directions (and adjoint
    directions) of one cell are solved together as one block-diagonal system
    over a (B, *cell) stack, by lgmres from zero (`_krylov`); `a` and
    `div_residual` also take stacks.
    """

    def __init__(self, a_nodes, grid, tol):
        self.grid = grid
        self.a = a_nodes                    # (*shape, d, d)
        # (d, d, *shape): the entry planes under eval's view, not a copy
        self.planes = np.moveaxis(a_nodes, (-2, -1), (0, 1))
        self.tol = tol
        self.calc = calculus(grid.shape)

    def solve_all(self, adjoint):
        """Every direction, then with `adjoint` every transposed-coefficient one:
        the blocks' values (B, *cell), grads (B, d, *cell), residuals (B,) and
        columns (B, d), the cell means of their fluxes a (e^j + grad chi^j)."""
        d = self.grid.dim
        blocks = [self.planes] * d
        if adjoint:
            blocks += [self.planes.swapaxes(0, 1)] * d
        return self._solve_blocks(np.stack(blocks), list(range(d)) * (2 if adjoint else 1))

    def div_residual(self, chi, dev, adjoint=False):
        """(*lead, d, size): the spectral divergence of each flux deviation
        dev (*lead, j, m, *cell)."""
        return self.calc.div(dev).reshape(dev.shape[:-self.grid.dim - 1] + (-1,))

    def _solve_blocks(self, a, dirs):
        """Solve block b with coefficient planes a[b] (d, d, *shape) in direction dirs[b].

        Each right-hand side is scaled to unit norm and the global relative
        tolerance is tol/sqrt(B), so every block's relative residual is
        bounded by tol; each block's true residual is still checked alone.
        """
        d, calc = self.grid.dim, self.calc
        rhs = np.sum(calc.deriv * calc.forward(a[np.arange(len(dirs)), :, dirs]), axis=1)
        scale = np.linalg.norm(calc.pack(rhs), axis=-1)               # grid l2 norm of div(a e^j)
        live = scale > 0.0
        spec = np.zeros_like(rhs)
        residuals = np.zeros(len(dirs))
        if live.any():
            norms = scale[live].reshape((-1,) + (1,) * d)
            spec[live], residuals[live] = self._krylov(a[live], rhs[live] / norms)
            spec[live] *= norms
        for b, res in enumerate(residuals):
            if res > 10 * self.tol:
                raise SolveError(f"cell solve (spectral{', adjoint' if b >= d else ''}, "
                                 f"j={dirs[b]}) residual {res:.2e}")
        values = calc.inverse(spec)
        grads = calc.inverse(calc.deriv * spec[:, None])
        # cell mean of the node flux a (e^j + grad chi^j) of every block, taken
        # in (node, p) layout: numpy then sums a 2D cell's nodes in turn, not
        # pairwise, and the columns keep their values to the last bit
        epg = grads + np.eye(d)[dirs].reshape((len(dirs), d) + (1,) * d)
        flux = np.sum(a * epg[:, None], axis=2)
        columns = np.moveaxis(flux, 1, -1).copy().reshape(len(dirs), -1, d).mean(axis=1)
        return values, grads, residuals, columns

    def _krylov(self, a, rhs):
        """Block solve for unit-norm half-spectrum right-hand sides: (solution
        half spectra, residuals).

        lgmres starts from zero and runs one outer iteration per call,
        warm-started from the last iterate and its augmentation vectors, and
        the true residual of every block (the grid l2 one: the coordinates
        carry Parseval weights) is checked after each call.  It cannot push
        the residual below the FFT roundoff floor, so the solve stops as soon
        as every block reaches tol or a call fails to halve the best
        residual, and keeps the best iterate.
        """
        calc = self.calc
        b = calc.pack(rhs)                                            # (B, m)
        op = flux_operator(calc, a)

        def apply(y):
            return calc.pack(op(calc.poisson_mult * calc.unpack(y.reshape(b.shape)))).ravel()

        lin = spla.LinearOperator((b.size, b.size), matvec=apply, dtype=float)
        y = best_y = np.zeros(b.size)
        best_res = np.ones(len(b))
        outer_v = []
        for _ in range(_LGMRES_CALLS):
            # looked up at call time so that callers may wrap scipy's lgmres
            y, _ = spla.lgmres(lin, b.ravel(), x0=y, rtol=self.tol / np.sqrt(len(b)), atol=0.0,
                               maxiter=1, outer_v=outer_v)
            res = np.linalg.norm(apply(y).reshape(b.shape) - b, axis=1)
            halved = res.max() <= 0.5 * best_res.max()
            if res.max() < best_res.max():
                best_y, best_res = y, res
            if best_res.max() <= self.tol or not halved:
                break
        return calc.poisson_mult * calc.unpack(best_y.reshape(b.shape)), best_res


def flux_operator(calc, a):
    """x_hat -> half spectrum of -div(a grad x) on (B, *half) spectra, for a
    C-contiguous (B, d, d, *cell) stack a: d inverse and d forward FFTs per block."""
    def apply(xhat):
        grad = calc.inverse(calc.deriv * xhat[:, None])
        return -np.sum(calc.deriv * calc.forward(np.sum(a * grad[:, None], axis=2)), axis=1)
    return apply


class FVCellSolver:
    """Conservative finite volumes for cells with discontinuous coefficients.

    The coefficient is held as one sample pair (`assemble.sample_coefficient`):
    `faces`, the a_mm at the face midpoints, and `a`, the node matrix, with
    the axes `lead` of a stack of slow samples first.  The scheme is its flux
    of a (e^j + grad v), `_flux`, and that flux's divergence, `_div`, written
    once: the right-hand side is the divergence at v = 0, the residual the one
    at v = chi^j, the effective column the flux's cell mean.  Only the solve
    reads the scheme's matrix: block diagonal, one block per sample pinned at
    its node 0 (the conservative right-hand side is exactly compatible), and
    factored once (a block's solves are its sample's own, bit for bit).  As
    A(a^T) = A(a)^T, the adjoint cells are solved with the transposed factor.
    """

    def __init__(self, a_eval, grid, tol):
        self.grid = grid
        self.tol = tol
        self.faces, self.a = sample_coefficient(a_eval, grid)
        self.lead = self.a.shape[:-grid.dim - 2]
        self._lu = None

    @property
    def lu(self):
        # row 0 of each block becomes e_0^T; assembled and factored on first
        # use since quadrature-only consumers never solve
        if self._lu is None:
            coo = assemble_diffusion(self.grid, self.faces, self.a).tocoo()
            pin = coo.row % self.grid.size == 0
            keep = ~pin | (coo.row == coo.col)
            self._lu = factor(sp.csc_matrix((np.where(pin, 1.0, coo.data)[keep],
                                             (coo.row[keep], coo.col[keep])), shape=coo.shape))
        return self._lu

    def div_residual(self, chi, dev, adjoint=False):
        """(*lead, d, size): the residual -div a (e^j + grad chi^j) of the scheme
        that defined chi (the fluxes carry kinks: a spectral divergence is no test)."""
        d = self.grid.dim
        r = -self._div(self._flux(np.moveaxis(chi, -d - 1, 0), adjoint))
        return np.moveaxis(r.reshape((d,) + self.lead + (-1,)), 0, -2)

    def _flux(self, values, adjoint=False):
        """(face, node) (d, d, *lead, *cell), the flux of a (e^j + grad v^j) for
        the directions' values v^j = values[j] (*lead, *cell): face[m, j] the
        two-point flux through the face between i and i + e_m, node[m, j] the
        centered cross terms sum_{k != m} a_mk (D0_k v^j + delta_kj), with a^T
        for the adjoint."""
        d, h = self.grid.dim, self.grid.h
        a = np.swapaxes(self.a, -1, -2) if adjoint else self.a
        e = np.eye(d).reshape((d, d) + (1,) * (values.ndim - 1))       # e[m, j] = delta_mj
        face = np.stack([self.faces[m] * ((np.roll(values, -1, axis=m - d) - values) / h + e[m])
                         for m in range(d)])
        node = np.zeros(face.shape)
        for m, k in permutations(range(d), 2):
            node[m] += a[..., m, k] * (centered_diff(values, k - d, h) + e[k])
        return face, node

    def _div(self, flux):
        """(d, *lead, *cell): the scheme's divergence of a `_flux`, backward
        differences of the face parts and centered ones of the node parts."""
        d, h = self.grid.dim, self.grid.h
        return sum((face - np.roll(face, 1, axis=m - d)) / h + centered_diff(node, m - d, h)
                   for m, (face, node) in enumerate(zip(*flux)))

    def solve_all(self, adjoint):
        """The arrays of `SpectralCellSolver.solve_all`, the sample axes (*lead)
        after the block axis."""
        families = [self._solve(False)] + ([self._solve(True)] if adjoint else [])
        return tuple(map(np.concatenate, zip(*families)))

    def _solve(self, adjoint):
        """Every direction of one family by one multi-RHS solve, the arrays of
        `solve_all` with j as block axis; a zero right-hand side gives chi = 0
        and residual 0.  One flux of every direction gives residuals and columns."""
        d, n = self.grid.dim, self.grid.size
        b = self._div(self._flux(np.zeros((d,) + self.a.shape[:-2]), adjoint)).reshape(d, -1, n)
        x = b.copy()
        x[..., 0] = 0.0
        x = self.lu.solve(x.reshape(d, -1).T, trans="T" if adjoint else "N").T.reshape(b.shape)
        if adjoint:
            # the pinned row is e_0^T, so rows 1.. of the transposed system
            # are those of A^T pinned at node 0; row 0 alone sees x[0]
            x[..., 0] = 0.0
        nb = np.sqrt(np.sum(b ** 2, axis=-1))
        v = np.where(nb[..., None] > 0.0, x - x.mean(axis=-1, keepdims=True), 0.0)
        values = v.reshape((d,) + self.lead + self.grid.shape)
        face, node = flux = self._flux(values, adjoint)
        r = self._div(flux).reshape(b.shape)
        res = np.divide(np.sqrt(np.sum(r ** 2, axis=-1)), nb, out=np.zeros_like(nb),
                        where=nb > 0.0)                                       # (d, S)
        bad = res > max(10 * self.tol, 1e-10)
        if bad.any():
            s = int(np.argmax(bad.any(axis=0)))
            j = int(np.argmax(bad[:, s]))
            raise SolveError(f"cell solve (fv{', adjoint' if adjoint else ''}, j={j}) "
                             f"residual {res[j, s]:.2e}", sample=s)
        grads = np.stack([centered_diff(values, ax, self.grid.h) for ax in range(-d, 0)],
                         axis=-d - 1)
        mean = lambda f: f.reshape(f.shape[:-d] + (-1,)).mean(axis=-1)          # (m, j, *lead)
        return (values, grads, res.reshape((d,) + self.lead),
                np.moveaxis(mean(face) + mean(node), 0, -1))


def make_solver(a_eval, grid, tol, method):
    if grid.n % 2:
        raise ValueError(f"cell grids need an even point count, got {grid.n}")
    if method == "spectral":
        return SpectralCellSolver(a_eval(grid.coords()), grid, tol)
    if method == "fv":
        return FVCellSolver(a_eval, grid, tol)
    raise ValueError(f"unknown cell method '{method}'")


@dataclass
class CellSolutions:
    """Cell solutions and their adjoints on a sample grid.

    Array layout (family f first: 0 the primal cell problems of a, 1 the
    adjoint ones of a^T; then the slow sample axes, direction j, cell axes):
      chi:          (2, *slow_shape, d, *cell_shape)
      grad_y_chi:   (2, *slow_shape, d, d, *cell_shape)
      a0:           (2, *slow_shape, d, d)
    where grad_y_chi[f, ..., j, m, ...] holds the m-derivative of solution j
    and a0[f, ..., :, j] its effective column (the `columns` of the cell
    solvers).  A symmetric field's one family fills both slots.
    Slow-variable gradients are centered differences of neighbouring
    samples, taken where they are used.
    """
    family: str
    slow_grid: TorusGrid
    cell_grid: TorusGrid
    chi: np.ndarray
    grad_y_chi: np.ndarray
    a0: np.ndarray
    residual_max: float = 0.0
    lipschitz_quotient: float = 0.0
    method: str = "spectral"

    @property
    def dim(self):
        return self.cell_grid.dim


def sample_groups(n_samples, cell_grid):
    """Consecutive slow samples in slices of at most _GROUP_UNKNOWNS cell
    unknowns together (at least one sample each)."""
    per = max(1, _GROUP_UNKNOWNS // cell_grid.size)
    return [slice(lo, min(lo + per, n_samples)) for lo in range(0, n_samples, per)]


def build_cell_table(field, slow_grid, cell_grid, tol=1e-11):
    """Solve primal and adjoint cell problems at every slow sample.

    Finite volumes solve a group of samples (`sample_groups`) at once: one
    coefficient evaluation, one block-diagonal factor, one solve per family.
    The spectral path solves one sample at a time (one lgmres over several
    samples was no faster).  The largest adjacent-sample H1 Lipschitz
    quotient of the solutions is recorded.
    """
    d = field.dim
    if slow_grid.dim != d or cell_grid.dim != d:
        raise ValueError("grid dimensions do not match the field")
    method = field.cell_method
    xs = slow_grid.coords().reshape(-1, d)
    n_slow = xs.shape[0]
    cshape = cell_grid.shape

    chi = np.zeros((2, n_slow, d) + cshape)
    gy = np.zeros((2, n_slow, d, d) + cshape)
    a0 = np.zeros((2, n_slow, d, d))

    # no slow dependence: one solve serves every sample
    n_solve = 1 if field.lipschitz_x == 0.0 else n_slow
    residual_max = 0.0
    for g in (sample_groups(n_solve, cell_grid) if method == "fv"
              else [slice(i, i + 1) for i in range(n_solve)]):
        try:
            values, grads, residuals, columns = make_solver(
                field.frozen(xs[g] if method == "fv" else xs[g.start]),
                cell_grid, tol, method).solve_all(adjoint=not field.symmetric)
        except SolveError as exc:
            raise SolveError(f"cell table build failed: slow sample x = "
                             f"{xs[g.start + (exc.sample or 0)]}: {exc}") from exc
        # blocks (family, j, sample): a symmetric field's one family fills both slots
        lead = (-1, d, g.stop - g.start)
        chi[:, g] = np.moveaxis(values.reshape(lead + cshape), 1, 2)
        gy[:, g] = np.moveaxis(grads.reshape(lead + (d,) + cshape), 1, 2)
        a0[:, g] = np.moveaxis(columns.reshape(lead + (d,)), 1, -1)
        residual_max = max(residual_max, float(residuals.max()))
    for table in (chi, gy, a0):
        table[:, n_solve:] = table[:, :1]
    chi, gy, a0 = (t.reshape((2,) + slow_grid.shape + t.shape[2:]) for t in (chi, gy, a0))

    # adjacent-sample H1 Lipschitz quotient along each slow axis
    w = cell_grid.h ** d
    quot = 0.0
    for ax in range(d):
        dv, dg = (np.roll(t[0], -1, axis=ax) - t[0] for t in (chi, gy))
        dv_sq = np.sum(dv ** 2, axis=tuple(range(d + 1, dv.ndim)))   # (*slow, d)
        dg_sq = np.sum(dg ** 2, axis=tuple(range(d + 1, dg.ndim)))
        per_pair = np.sqrt(w * (dv_sq + dg_sq))
        quot = max(quot, float(per_pair.max()) / slow_grid.h)

    return CellSolutions(family=field.name, slow_grid=slow_grid, cell_grid=cell_grid,
                         chi=chi, grad_y_chi=gy, a0=a0, residual_max=residual_max,
                         lipschitz_quotient=quot, method=method)


# -- binary container --------------------------------------------------------

_MAGIC = b"CELLTBL4"
_HEADER = 8 + 64 + 8 + 24 + 16   # magic, family, method, (dim, n_x, n_y), two floats


def save_cell_table(path, cells):
    """Write a cell table to the documented flat binary layout.

    Layout: 8-byte magic `CELLTBL4`, 64-byte family name and 8-byte cell
    method (`spectral` or `fv`; both utf-8, zero padded), three
    little-endian int64 (dim, n_x, n_y), one little-endian float64 pair
    (residual_max, lipschitz_quotient), then the float64 arrays chi[0],
    grad_y_chi[0], chi[1], grad_y_chi[1], a0[0], a0[1] in C order (the
    primal family's solutions, the adjoint family's, then both a0).
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(cells.family.encode()[:64].ljust(64, b"\0"))
        fh.write(cells.method.encode()[:8].ljust(8, b"\0"))
        fh.write(struct.pack("<3q", cells.dim, cells.slow_grid.n, cells.cell_grid.n))
        fh.write(struct.pack("<2d", cells.residual_max, cells.lipschitz_quotient))
        for arr in (cells.chi[0], cells.grad_y_chi[0], cells.chi[1], cells.grad_y_chi[1],
                    cells.a0):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_cell_table(path):
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValueError(f"cannot read cell table {path}: {exc}") from exc
    with fh:
        if fh.read(8) != _MAGIC:
            raise ValueError(f"{path}: not a cell table container ({_MAGIC.decode()})")
        header = fh.read(_HEADER - 8)
        actual = os.fstat(fh.fileno()).st_size
        if len(header) < _HEADER - 8:
            raise ValueError(f"{path}: expected at least {_HEADER} bytes, found {actual}")
        dim, n_x, n_y = struct.unpack_from("<3q", header, 72)
        residual_max, lip = struct.unpack_from("<2d", header, 96)
        try:
            family = header[:64].rstrip(b"\0").decode()
            method = header[64:72].rstrip(b"\0").decode()
            if method not in ("spectral", "fv"):
                raise ValueError(f"unknown cell method {method!r}")
            slow, cell = TorusGrid(dim, n_x), TorusGrid(dim, n_y)
        except ValueError as exc:   # UnicodeDecodeError included
            raise ValueError(f"{path}: bad header: {exc}") from exc
        sshape, cshape = slow.shape, cell.shape
        shapes = [sshape + (dim,) + cshape, sshape + (dim, dim) + cshape] * 2
        shapes += [(2,) + sshape + (dim, dim)]
        expected = _HEADER + 8 * sum(int(np.prod(shape)) for shape in shapes)
        if actual != expected:
            raise ValueError(f"{path}: expected {expected} bytes, found {actual}")
        chi, gy, chi_a, gy_a, a0 = (
            np.fromfile(fh, dtype="<f8", count=int(np.prod(shape))).reshape(shape)
            for shape in shapes)
    return CellSolutions(family=family, slow_grid=slow, cell_grid=cell,
                         chi=np.stack([chi, chi_a]), grad_y_chi=np.stack([gy, gy_a]), a0=a0,
                         residual_max=residual_max, lipschitz_quotient=lip, method=method)
