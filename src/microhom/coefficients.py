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
    evaluator : (x, y) -> matrix, with x, y arrays of shape (..., dim) and
        result (..., dim, dim); arguments already wrapped to [0, 1)
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
        x = np.mod(np.asarray(x, dtype=float), 1.0)
        y = np.mod(np.asarray(y, dtype=float), 1.0)
        return self.evaluator(x, y)

    def frozen(self, x):
        """Cell evaluator y -> a(x, y) at one fixed slow point x."""
        x = np.asarray(x, dtype=float)

        def a_eval(y):
            return self.eval(np.broadcast_to(x, y.shape), y)

        return a_eval

    def transposed(self):
        """The field with the matrix transposed pointwise; metadata carries over."""
        ev = self.evaluator

        def ev_t(x, y):
            return np.swapaxes(ev(x, y), -1, -2)

        return CoefficientField(
            dim=self.dim, evaluator=ev_t, ellipticity=self.ellipticity,
            lipschitz_x=self.lipschitz_x, symmetric=self.symmetric,
            cell_method=self.cell_method,
            name=self.name + ".T", params=dict(self.params),
        )


def _as_matrix(vals_dict, shape, dim):
    """Assemble (..., dim, dim) from a {(i, j): array} dict of entries."""
    out = np.zeros(shape + (dim, dim))
    for (i, j), v in vals_dict.items():
        out[..., i, j] = v
    return out


def _constant(params):
    dim = int(params.get("dim", 1))
    mat = params.get("matrix")
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
        return np.broadcast_to(mat, x.shape[:-1] + (dim, dim)).copy()

    return CoefficientField(dim=dim, evaluator=ev, ellipticity=lam,
                            lipschitz_x=0.0, symmetric=bool(np.array_equal(mat, mat.T)),
                            name="constant", params={"matrix": mat.tolist()})


def _separable_1d(params):
    ay = float(params.get("y_amplitude", 1.0))
    ax = float(params.get("x_amplitude", 0.5))
    if not (0 <= ay < 2 and 0 <= ax < 1):
        raise ValueError("need 0 <= y_amplitude < 2 and 0 <= x_amplitude < 1")
    lam_low = (2.0 - ay) * (1.0 - ax)
    upper = (2.0 + ay) * (1.0 + ax)
    lam = min(lam_low, 1.0 / upper)
    c_l = (2.0 + ay) * ax * TWO_PI

    def ev(x, y):
        fast = 2.0 + ay * np.sin(TWO_PI * y[..., 0])
        slow = 1.0 + ax * np.sin(TWO_PI * x[..., 0])
        return (fast * slow)[..., None, None]

    return CoefficientField(dim=1, evaluator=ev, ellipticity=lam, lipschitz_x=c_l,
                            symmetric=True, name="separable_1d",
                            params={"y_amplitude": ay, "x_amplitude": ax})


def _laminate_2d(params):
    alo = float(params.get("alpha_lo", 1.0))
    ahi = float(params.get("alpha_hi", 4.0))
    blo = float(params.get("beta_lo", 1.0))
    bhi = float(params.get("beta_hi", 3.0))
    theta = float(params.get("fraction", 0.5))
    ax = float(params.get("x_amplitude", 0.0))
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
        return _as_matrix({(0, 0): slow * alpha, (1, 1): slow * beta},
                          np.broadcast(x[..., 0], y[..., 0]).shape, 2)

    return CoefficientField(dim=2, evaluator=ev, ellipticity=lam, lipschitz_x=c_l,
                            symmetric=True, cell_method="fv", name="laminate_2d",
                            params={"alpha_lo": alo, "alpha_hi": ahi, "beta_lo": blo,
                                    "beta_hi": bhi, "fraction": theta, "x_amplitude": ax})


def _smooth_2d_nonsymmetric(params):
    sa = float(params.get("slow_amplitude", 0.25))
    off = float(params.get("offdiag", 0.3))
    sk = float(params.get("skew", 0.4))
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
        p = 2.0 + 0.6 * np.sin(TWO_PI * y1) + 0.4 * np.cos(TWO_PI * y2)
        q = off * np.sin(TWO_PI * y2)
        sigma = 1.0 + sa * (0.6 * np.sin(TWO_PI * x1) + 0.4 * np.cos(TWO_PI * x2))
        r = sk * (0.7 + 0.3 * np.sin(TWO_PI * y1) * np.sin(TWO_PI * x1))
        return p, q, sigma, r

    def ev(x, y):
        p, q, sigma, r = parts(x, y)
        shape = np.broadcast(x[..., 0], y[..., 0]).shape
        return _as_matrix({(0, 0): sigma * p, (1, 1): sigma * p,
                           (0, 1): sigma * q + r, (1, 0): sigma * q - r}, shape, 2)

    return CoefficientField(dim=2, evaluator=ev, ellipticity=lam, lipschitz_x=c_l,
                            symmetric=False, name="smooth_2d_nonsymmetric",
                            params={"slow_amplitude": sa, "offdiag": off, "skew": sk})


def _periodic_only(params):
    dim = int(params.get("dim", 2))
    amp = float(params.get("amplitude", 0.8))
    sym = bool(params.get("symmetric", True))
    sk = 0.0 if sym else float(params.get("skew", 0.4))

    if dim == 1:
        if not 0 <= amp < 2:
            raise ValueError("need 0 <= amplitude < 2")
        lam = min(2.0 - amp, 1.0 / (2.0 + amp))

        def ev(x, y):
            return (2.0 + amp * np.sin(TWO_PI * y[..., 0]))[..., None, None]

        return CoefficientField(dim=1, evaluator=ev, ellipticity=lam, lipschitz_x=0.0,
                                symmetric=True, name="periodic_only",
                                params={"dim": 1, "amplitude": amp, "symmetric": True})

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
        shape = np.broadcast(x[..., 0], y[..., 0]).shape
        return _as_matrix({(0, 0): p, (1, 1): p, (0, 1): q + r, (1, 0): q - r},
                          shape, 2)

    return CoefficientField(dim=2, evaluator=ev, ellipticity=lam, lipschitz_x=0.0,
                            symmetric=sym, name="periodic_only",
                            params={"dim": 2, "amplitude": amp, "symmetric": sym,
                                    "skew": sk})


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
    periodic_only.  Raises ValueError on an unknown id or parameters that
    break ellipticity.
    """
    if family_id not in _FAMILIES:
        raise ValueError(f"unknown coefficient family '{family_id}'; "
                         f"known: {sorted(_FAMILIES)}")
    return _FAMILIES[family_id](dict(params or {}))


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
