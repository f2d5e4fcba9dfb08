"""Fourier calculus on uniform periodic grids.

Derivative multipliers are 2*pi*i*k for integer modes k.  On even grids the
unmatched Nyquist mode k = -n/2 has no symmetric partner, so every operator
here zeroes it (the mask below); this keeps derivatives real, skew-adjoint,
and leaves the subspace of masked modes invariant, which the iterative cell
solver relies on.  The interpolant `trig_kernel` splits it over +-n/2 instead.
That solver iterates on the half spectrum in Parseval-weighted real
coordinates (`FourierCalculus.pack`), whose Euclidean norm is the grid l2 norm.
"""

import numpy as np


def integer_freqs(shape):
    """Per-axis integer mode numbers, broadcastable to `shape`."""
    d = len(shape)
    out = []
    for ax, n in enumerate(shape):
        k = np.fft.fftfreq(n, d=1.0 / n)
        sh = [1] * d
        sh[ax] = n
        out.append(k.reshape(sh))
    return out


def resolved_mask(shape):
    """True on modes with every |k| strictly below the Nyquist frequency."""
    mask = np.ones(shape, dtype=bool)
    for ax, k in zip(range(len(shape)), integer_freqs(shape)):
        mask &= np.abs(k) < shape[ax] / 2.0
    return mask


class FourierCalculus:
    """Cached multipliers for one grid shape.

    The grid occupies the trailing axes of every input; any leading axes
    are a batch, transformed in the same FFT call.  Real data is carried
    on the half spectrum (`rfftn`), which the odd, Nyquist-masked
    multipliers keep Hermitian.  `pack` scales each mode by sqrt(2/N) off
    the k_last = 0 plane and by sqrt(1/N) on it, where both members of each
    conjugate pair are stored; `inverse` reads only the Hermitian part of
    that plane, so the rest of it lies in the null space of every operator
    built on it.
    """

    def __init__(self, shape):
        self.shape = shape
        self.dim = len(shape)
        self.axes = tuple(range(-self.dim, 0))
        ks = integer_freqs(shape)
        half = [k[..., : shape[-1] // 2 + 1] for k in ks]
        mask = resolved_mask(shape)[..., : shape[-1] // 2 + 1]
        self.deriv = np.stack([2j * np.pi * k * mask for k in half])   # (d, *half)
        k2 = sum((2.0 * np.pi * k) ** 2 for k in half) * np.ones(mask.shape)
        inv = np.zeros(mask.shape)
        nz = mask & (k2 > 0)
        inv[nz] = 1.0 / k2[nz]
        self.poisson_mult = inv  # (-Laplace)^-1 on masked, zero-mean modes
        # Parseval weights of the half spectrum: a mode with 0 < k_last < n_last/2
        # stands for itself and its conjugate, the k_last = 0 plane holds both
        # members of each pair, and the masked modes and the mean weigh 0
        self._weight = np.sqrt(np.where(half[-1] > 0, 2.0, 1.0) / np.prod(shape)) * (inv > 0)
        self._unweight = np.divide(1.0, self._weight, out=np.zeros(mask.shape), where=inv > 0)

    def forward(self, values):
        """Half spectrum (`rfftn`) over the trailing grid axes."""
        return np.fft.rfftn(values, axes=self.axes)

    def inverse(self, spec):
        """Real grid values of a half spectrum (`irfftn`)."""
        return np.fft.irfftn(spec, s=self.shape, axes=self.axes)

    def pack(self, spec):
        """Real coordinates of half spectra: (*batch, *half) -> (*batch, 2 * half.size).

        The weighted real and imaginary parts of every mode, zero on the
        masked modes and the mean; on the masked, zero-mean spectrum of a
        real field their Euclidean norm is the grid l2 norm of the field.
        """
        flt = (spec * self._weight).view(float)
        return flt.reshape(flt.shape[:-self.dim] + (-1,))

    def unpack(self, packed):
        """Half spectra of packed coordinates, the inverse of `pack`."""
        spec = np.ascontiguousarray(packed).view(complex)
        return spec.reshape(packed.shape[:-1] + self._weight.shape) * self._unweight

    def grad(self, values):
        """Masked spectral gradient: (*batch, *shape) -> (*batch, d, *shape)."""
        vhat = self.forward(values)
        return self.inverse(self.deriv * np.expand_dims(vhat, -self.dim - 1))

    def div(self, vec):
        """Masked spectral divergence: (*batch, d, *shape) -> (*batch, *shape)."""
        return self.inverse(np.sum(self.deriv * self.forward(vec), axis=-self.dim - 1))

    def poisson(self, rhs):
        """Zero-mean solution of -Laplace(u) = rhs on the torus, per batch entry."""
        return self.inverse(self.poisson_mult * self.forward(rhs))


_CALC_CACHE = {}


def calculus(shape):
    shape = tuple(int(n) for n in shape)
    if shape not in _CALC_CACHE:
        _CALC_CACHE[shape] = FourierCalculus(shape)
    return _CALC_CACHE[shape]


def trig_kernel(n, pts):
    """Weights (len(pts), n) of the trigonometric interpolant on the nodes m/n at pts.

    Node m weighs the real part of (1/n) sum_k exp(2 pi i k (pt - m/n)) over the signed
    modes of `integer_freqs`, which splits the unmatched Nyquist mode into half weights
    at +-n/2 (Trefethen, Spectral Methods in MATLAB, ch. 3): real data stays real.
    """
    k = integer_freqs((n,))[0]
    return (np.fft.fft(np.exp(2j * np.pi * np.asarray(pts)[:, None] * k), axis=-1) / n).real


def trig_resample(values, n_to, offset=None):
    """Evaluate the trigonometric interpolant on a finer uniform grid.

    `values` samples a 1-periodic function on a (n,)*d grid with nodes at
    k/n; the result samples its interpolant (`trig_kernel`, one product per
    axis) at j/n_to + offset.  The mean is carried apart, so a constant
    comes back exactly.  Spectrally accurate for smooth data; exact for
    resolved trig polynomials.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n_to < n:
        raise ValueError(f"resampling target {n_to} coarser than the source {n}")
    mean = values.mean()
    out = values - mean
    for ax in range(values.ndim):
        pts = np.arange(n_to) / n_to + (0.0 if offset is None else float(offset[ax]))
        out = np.moveaxis(np.tensordot(trig_kernel(n, pts), out, axes=(1, ax)), 0, ax)
    return out + mean
