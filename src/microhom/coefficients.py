"""Coefficient matrix fields a(x, y): builtin families and validation.

Every field is 1-periodic in each component of the slow variable x and the
cell variable y.  Evaluators wrap their arguments mod 1 before applying the
closed form, so periodicity holds bitwise at sampled points.
"""

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass
class CoefficientField:
    """Matrix field a(x, y) with its structural metadata.

    Attributes
    ----------
    dim : spatial dimension (1 or 2)
    evaluator : (x, y) -> entry planes, with x, y arrays of shapes (..., dim)
        that broadcast against each other, already wrapped mod 1 (into
        [0, 1]: a tiny negative entry wraps to 1.0); the result holds entry
        a_ij in plane [i, j] of one (dim, dim) + broadcast(x, y).shape[:-1]
        array, so a caller may pass x and y on factored axes (the drift:
        slow and fast points apart); x and y may be non-contiguous views,
        such as (..., dim) views of component-major (dim, ...) buffers (the
        drift's), and the values must not depend on the memory layout
    ellipticity : claimed constant lam > 0 with
        a xi . xi >= lam |xi|^2  and  |a xi| <= (1/lam) |xi|
    lipschitz_x : claimed Lipschitz constant of x -> a(x, .)
    symmetric : whether a(x, y) is symmetric everywhere
    cell_method : preferred cell discretization ("spectral" or "fv")
    """

    dim: int
    evaluator: Callable
    ellipticity: float
    lipschitz_x: float
    symmetric: bool
    cell_method: str = "spectral"
    name: str = "custom"
    params: dict = dc_field(default_factory=dict)

    def eval(self, x, y):
        """a(x, y) of shape broadcast(x, y).shape[:-1] + (d, d): a view of the
        evaluator's entry planes, whose shape is checked."""
        x, y = (np.asarray(v, dtype=float) for v in (x, y))
        x, y = x - np.floor(x), y - np.floor(y)  # np.mod(., 1.0) bit for bit, faster
        planes = self.evaluator(x, y)
        shape = (self.dim,) * 2 + np.broadcast_shapes(x.shape, y.shape)[:-1]
        if planes.shape != shape:
            raise ValueError(f"coefficient field '{self.name}' evaluated to shape {planes.shape}, "
                             f"not (d, d) + broadcast(x, y).shape[:-1] = {shape}")
        return np.moveaxis(planes, (0, 1), (-2, -1))

    def frozen(self, x):
        """Cell evaluator y -> a(x, y) at a fixed slow point x (d,), or at a
        stack of them (*lead, d), whose axes then lead the result."""
        x = np.asarray(x, dtype=float)

        def a_eval(y):
            return self.eval(x.reshape(x.shape[:-1] + (1,) * (y.ndim - 1) + x.shape[-1:]), y)

        return a_eval

    def transposed(self):
        """The field with the matrix transposed pointwise; metadata carries over."""
        ev = self.evaluator

        def ev_t(x, y):
            return np.swapaxes(ev(x, y), 0, 1)

        return CoefficientField(
            dim=self.dim, evaluator=ev_t, ellipticity=self.ellipticity,
            lipschitz_x=self.lipschitz_x, symmetric=self.symmetric,
            cell_method=self.cell_method,
            name=self.name + ".T", params=dict(self.params),
        )


def _planes(x, y, *entries):
    """The d * d entries, row by row (arrays or scalars), as one C-contiguous
    (d, d) + broadcast(x, y).shape[:-1] planes array."""
    shape = np.broadcast_shapes(x.shape, y.shape)[:-1]
    planes = np.empty((len(entries),) + shape)
    for plane, v in zip(planes, entries):
        plane[...] = v
    return planes.reshape((x.shape[-1],) * 2 + shape)


def _constant(params):
    dim = int(params.pop("dim", 1))
    mat = params.pop("matrix", None)
    if mat is None:
        mat = np.eye(dim)
    mat = np.asarray(mat, dtype=float)
    dim = mat.shape[0]
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix must be square, got {mat.shape}")
    sym_part = 0.5 * (mat + mat.T)
    lam_low = float(np.linalg.eigvalsh(sym_part).min())
    if lam_low <= 0:
        raise ValueError("constant matrix is not elliptic")
    upper = float(np.linalg.norm(mat, 2))
    lam = min(lam_low, 1.0 / upper)

    def ev(x, y):
        return _planes(x, y, *mat.ravel())

    return CoefficientField(dim=dim, evaluator=ev, ellipticity=lam,
                            lipschitz_x=0.0, symmetric=bool(np.array_equal(mat, mat.T)),
                            name="constant", params={"matrix": mat.tolist()})


def _separable_1d(params):
    ay = float(params.pop("y_amplitude", 1.0))
    ax = float(params.pop("x_amplitude", 0.5))
    if not (0 <= ay < 2 and 0 <= ax < 1):
        raise ValueError("need 0 <= y_amplitude < 2 and 0 <= x_amplitude < 1")
    lam_low = (2.0 - ay) * (1.0 - ax)
    upper = (2.0 + ay) * (1.0 + ax)
    lam = min(lam_low, 1.0 / upper)
    c_l = (2.0 + ay) * ax * TWO_PI

    def ev(x, y):
        fast = 2.0 + ay * np.sin(TWO_PI * y[..., 0])
        slow = 1.0 + ax * np.sin(TWO_PI * x[..., 0])
        return _planes(x, y, fast * slow)

    return CoefficientField(dim=1, evaluator=ev, ellipticity=lam, lipschitz_x=c_l,
                            symmetric=True, name="separable_1d",
                            params={"y_amplitude": ay, "x_amplitude": ax})


def _laminate_2d(params):
    alo = float(params.pop("alpha_lo", 1.0))
    ahi = float(params.pop("alpha_hi", 4.0))
    blo = float(params.pop("beta_lo", 1.0))
    bhi = float(params.pop("beta_hi", 3.0))
    theta = float(params.pop("fraction", 0.5))
    ax = float(params.pop("x_amplitude", 0.0))
    if min(alo, ahi, blo, bhi) <= 0:
        raise ValueError("laminate phase values must be positive")
    if not (0 < theta < 1):
        raise ValueError("fraction must lie in (0, 1)")
    if not 0 <= ax < 1:
        raise ValueError("need 0 <= x_amplitude < 1")
    lam_low = (1.0 - ax) * min(alo, blo)
    upper = (1.0 + ax) * max(ahi, bhi)
    lam = min(lam_low, 1.0 / upper)
    c_l = TWO_PI * ax * max(ahi, bhi)

    def pieces(y1):
        alpha = np.where(y1 < theta, alo, ahi)
        beta = np.where(y1 < theta, blo, bhi)
        return alpha, beta

    def ev(x, y):
        alpha, beta = pieces(y[..., 0])
        slow = 1.0 + ax * np.sin(TWO_PI * x[..., 0])
        return _planes(x, y, slow * alpha, 0.0, 0.0, slow * beta)

    return CoefficientField(dim=2, evaluator=ev, ellipticity=lam, lipschitz_x=c_l,
                            symmetric=True, cell_method="fv", name="laminate_2d",
                            params={"alpha_lo": alo, "alpha_hi": ahi, "beta_lo": blo,
                                    "beta_hi": bhi, "fraction": theta, "x_amplitude": ax})


def _smooth_2d_nonsymmetric(params):
    sa = float(params.pop("slow_amplitude", 0.25))
    off = float(params.pop("offdiag", 0.3))
    sk = float(params.pop("skew", 0.4))
    if not 0 <= sa < 1:
        raise ValueError("need 0 <= slow_amplitude < 1")
    base_min = 1.0  # min of 2 + 0.6 sin + 0.4 cos
    if off >= base_min:
        raise ValueError("offdiag too large for ellipticity")
    lam_low = (1.0 - sa) * (base_min - off)
    upper = (1.0 + sa) * (3.0 + off) + abs(sk)
    lam = min(lam_low, 1.0 / upper)
    # |d/dx sigma| <= 2 pi sa, |d/dx skew part| <= 2 pi * 0.3 |sk|
    c_l = TWO_PI * sa * (3.0 + off) + TWO_PI * 0.3 * abs(sk)

    def parts(x, y):
        y1, y2 = y[..., 0], y[..., 1]
        x1, x2 = x[..., 0], x[..., 1]
        sin_y1, sin_x1 = np.sin(TWO_PI * y1), np.sin(TWO_PI * x1)
        p = 2.0 + 0.6 * sin_y1 + 0.4 * np.cos(TWO_PI * y2)
        q = off * np.sin(TWO_PI * y2)
        sigma = 1.0 + sa * (0.6 * sin_x1 + 0.4 * np.cos(TWO_PI * x2))
        r = sk * (0.7 + 0.3 * sin_y1 * sin_x1)
        return p, q, sigma, r

    def ev(x, y):
        p, q, sigma, r = parts(x, y)
        diag, sq = sigma * p, sigma * q
        return _planes(x, y, diag, sq + r, sq - r, diag)

    return CoefficientField(dim=2, evaluator=ev, ellipticity=lam, lipschitz_x=c_l,
                            symmetric=False, name="smooth_2d_nonsymmetric",
                            params={"slow_amplitude": sa, "offdiag": off, "skew": sk})


def _periodic_only(params):
    dim = int(params.pop("dim", 2))
    amp = float(params.pop("amplitude", 0.8))
    sym = bool(params.pop("symmetric", True))

    if dim == 1:
        if not 0 <= amp < 2:
            raise ValueError("need 0 <= amplitude < 2")
        lam = min(2.0 - amp, 1.0 / (2.0 + amp))

        def ev(x, y):
            return _planes(x, y, 2.0 + amp * np.sin(TWO_PI * y[..., 0]))

        return CoefficientField(dim=1, evaluator=ev, ellipticity=lam, lipschitz_x=0.0,
                                symmetric=True, name="periodic_only",
                                params={"dim": 1, "amplitude": amp, "symmetric": True})

    sk = 0.0 if sym else float(params.pop("skew", 0.4))
    # mixed-frequency diagonal keeps the third-order coefficient tensors
    # away from accidental parity zeros
    lam_low = 2.0 - 1.7 * amp
    if lam_low <= 0:
        raise ValueError("amplitude too large for ellipticity")
    upper = 2.0 + 1.7 * amp + abs(sk)
    lam = min(lam_low, 1.0 / upper)

    def ev(x, y):
        y1, y2 = y[..., 0], y[..., 1]
        p = 2.0 + amp * (0.5 * np.sin(TWO_PI * y1) + 0.4 * np.cos(TWO_PI * y2)
                         + 0.3 * np.sin(TWO_PI * (y1 + y2)))
        q = amp * (0.3 * np.sin(TWO_PI * y2) + 0.2 * np.cos(TWO_PI * y1))
        r = sk * np.cos(TWO_PI * y2)
        return _planes(x, y, p, q + r, q - r, p)

    return CoefficientField(dim=2, evaluator=ev, ellipticity=lam, lipschitz_x=0.0,
                            symmetric=sym, name="periodic_only",
                            params={"dim": 2, "amplitude": amp, "symmetric": sym,
                                    **({} if sym else {"skew": sk})})


_FAMILIES = {
    "constant": _constant,
    "separable_1d": _separable_1d,
    "laminate_2d": _laminate_2d,
    "smooth_2d_nonsymmetric": _smooth_2d_nonsymmetric,
    "periodic_only": _periodic_only,
}


def builtin_family(family_id, params=None):
    """Instantiate a builtin coefficient family by id.

    Known ids: constant, separable_1d, laminate_2d, smooth_2d_nonsymmetric,
    periodic_only.  Raises ValueError on an unknown id, parameters that
    break ellipticity, or a parameter the family does not read.
    """
    if family_id not in _FAMILIES:
        raise ValueError(f"unknown coefficient family '{family_id}'; "
                         f"known: {sorted(_FAMILIES)}")
    params = dict(params or {})
    field = _FAMILIES[family_id](params)   # each factory pops what it reads
    if params:
        raise ValueError(f"coefficient family '{family_id}' does not read {sorted(params)}")
    return field


@dataclass
class ValidationReport:
    passed: bool
    ellipticity_measured: float
    upper_measured: float
    lipschitz_measured: float
    n_samples: int
    failures: list

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"validation: {status} ({self.n_samples} samples)",
            f"  measured ellipticity lower bound: {self.ellipticity_measured:.6g}",
            f"  measured operator-norm upper bound: {self.upper_measured:.6g}",
            f"  measured Lipschitz quotient max: {self.lipschitz_measured:.6g}",
        ]
        lines += [f"  violation: {f}" for f in self.failures]
        return "\n".join(lines)


def validate_coefficient(field, n_samples, seed=0, slack=0.01):
    """Sampled check of a field's claimed metadata.

    Draws random (x, x', y, xi) tuples, measures the ellipticity form, the
    operator-norm bound, the slow-variable Lipschitz quotient, exact
    periodicity, and the symmetric flag, and compares against the claims
    with the given relative slack.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    d = field.dim
    # dyadic sample points keep x + 1 exactly representable, so the
    # wrap-around periodicity check can demand bitwise equality
    scale = 2 ** 26
    x = rng.integers(0, scale, (n_samples, d)) / scale
    x2 = rng.integers(0, scale, (n_samples, d)) / scale
    y = rng.integers(0, scale, (n_samples, d)) / scale
    xi = rng.normal(size=(n_samples, d))
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)

    a = field.eval(x, y)
    failures = []

    quad = np.einsum("nij,ni,nj->n", a, xi, xi)
    ell = float(quad.min())
    if ell < field.ellipticity * (1.0 - slack):
        i = int(np.argmin(quad))
        failures.append(f"ellipticity {quad[i]:.6g} < claimed {field.ellipticity:.6g} "
                        f"at x={x[i]}, y={y[i]}, xi={xi[i]}")

    img = np.einsum("nij,nj->ni", a, xi)
    opn = float(np.linalg.norm(img, axis=-1).max())
    if opn > (1.0 / field.ellipticity) * (1.0 + slack):
        i = int(np.argmax(np.linalg.norm(img, axis=-1)))
        failures.append(f"|a xi| = {np.linalg.norm(img[i]):.6g} exceeds "
                        f"1/lambda = {1.0 / field.ellipticity:.6g} at x={x[i]}, y={y[i]}")

    a2 = field.eval(x2, y)
    dist = np.linalg.norm(x - x2, axis=-1)
    diff = np.linalg.norm(a - a2, ord=2, axis=(-2, -1))
    ok = dist > 1e-12
    quot = np.zeros_like(dist)
    quot[ok] = diff[ok] / dist[ok]
    lip = float(quot.max()) if ok.any() else 0.0
    if lip > field.lipschitz_x * (1.0 + slack) + 1e-12:
        i = int(np.argmax(quot))
        failures.append(f"Lipschitz quotient {quot[i]:.6g} > claimed "
                        f"{field.lipschitz_x:.6g} at x={x[i]}, x'={x2[i]}, y={y[i]}")

    for ax in range(d):
        e = np.zeros(d)
        e[ax] = 1.0
        if not np.array_equal(field.eval(x + e, y), a):
            failures.append(f"not exactly periodic in x along axis {ax}")
        if not np.array_equal(field.eval(x, y + e), a):
            failures.append(f"not exactly periodic in y along axis {ax}")

    if field.symmetric and float(np.abs(a - np.swapaxes(a, -1, -2)).max()) != 0.0:
        failures.append("symmetric flag set but a != a^T at sampled points")

    return ValidationReport(passed=not failures, ellipticity_measured=ell,
                            upper_measured=opn, lipschitz_measured=lip,
                            n_samples=n_samples, failures=failures)
