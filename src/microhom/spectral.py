"""Fourier calculus on uniform periodic grids.

Derivative multipliers are 2*pi*i*k for integer modes k.  On even grids the
unmatched Nyquist mode k = -n/2 has no symmetric partner, so every operator
here zeroes it (the mask below); this keeps derivatives real, skew-adjoint,
and leaves the subspace of masked modes invariant, which the iterative cell
solver relies on.
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
    multipliers keep Hermitian.
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

    def _forward(self, values):
        return np.fft.rfftn(values, axes=self.axes)

    def _inverse(self, spec):
        return np.fft.irfftn(spec, s=self.shape, axes=self.axes)

    def grad(self, values):
        """Masked spectral gradient: (*batch, *shape) -> (*batch, d, *shape)."""
        vhat = self._forward(values)
        return self._inverse(self.deriv * np.expand_dims(vhat, -self.dim - 1))

    def div(self, vec):
        """Masked spectral divergence: (*batch, d, *shape) -> (*batch, *shape)."""
        return self._inverse(np.sum(self.deriv * self._forward(vec), axis=-self.dim - 1))

    def poisson(self, rhs):
        """Zero-mean solution of -Laplace(u) = rhs on the torus, per batch entry."""
        return self._inverse(self.poisson_mult * self._forward(rhs))


_CALC_CACHE = {}


def calculus(shape):
    shape = tuple(int(n) for n in shape)
    if shape not in _CALC_CACHE:
        _CALC_CACHE[shape] = FourierCalculus(shape)
    return _CALC_CACHE[shape]


def _pad_axis(spec, axis, n_to):
    """Zero-pad one axis of a full FFT spectrum, splitting the Nyquist mode."""
    n_from = spec.shape[axis]
    if n_to == n_from:
        return spec.copy()
    if n_to < n_from:
        raise ValueError("padding target smaller than source")
    sh = list(spec.shape)
    sh[axis] = n_to
    out = np.zeros(sh, dtype=complex)

    def put(dst_idx, src_idx, scale=1.0):
        src = [slice(None)] * spec.ndim
        dst = [slice(None)] * spec.ndim
        src[axis] = src_idx
        dst[axis] = dst_idx
        out[tuple(dst)] += scale * spec[tuple(src)]

    if n_from % 2 == 0:
        half = n_from // 2
        put(slice(0, half), slice(0, half))
        if half > 1:
            put(slice(n_to - (half - 1), n_to), slice(half + 1, n_from))
        # split the single -n/2 coefficient over the +-n/2 slots
        put(half, half, 0.5)
        put(n_to - half, half, 0.5)
    else:
        half = (n_from - 1) // 2
        put(slice(0, half + 1), slice(0, half + 1))
        put(slice(n_to - half, n_to), slice(half + 1, n_from))
    return out


def trig_resample(values, n_to, offset=None):
    """Evaluate the trigonometric interpolant on a finer uniform grid.

    `values` samples a 1-periodic function on a (n,)*d grid with nodes at
    k/n; the result samples its trig interpolant at j/n_to + offset.
    Spectrally accurate for smooth data; exact for resolved trig polynomials.
    """
    values = np.asarray(values, dtype=float)
    d = values.ndim
    spec = np.fft.fftn(values) / values.size
    for ax in range(d):
        spec = _pad_axis(spec, ax, n_to)
    if offset is not None:
        for ax, k in zip(range(d), integer_freqs(spec.shape)):
            spec = spec * np.exp(2j * np.pi * k * float(offset[ax]))
    return np.fft.ifftn(spec).real * spec.size

