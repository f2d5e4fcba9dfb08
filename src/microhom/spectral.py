"""Fourier calculus on uniform periodic grids.

Derivative multipliers are 2*pi*i*k for integer modes k.  On even grids the
unmatched Nyquist mode k = -n/2 has no symmetric partner, so every operator
here zeroes it (the mask below); this keeps derivatives real, skew-adjoint,
and leaves the subspace of masked modes invariant, which the iterative cell
solver relies on.  The interpolant `trig_kernel` splits it over +-n/2 instead.
"""

from itertools import product

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
        # boxes of the float view (re, im on the last axis) of a half spectrum:
        # box l holds 0 < k_l < n_l/2, later axes at 0 and earlier ones off
        # Nyquist, so every masked nonzero mode or its conjugate is kept once
        d = self.dim
        self._boxes = []
        for l, n in enumerate(shape):
            before = [(slice(0, m // 2), slice(m // 2 + 1, m)) for m in shape[:l]]
            at = ((slice(2, n),) if l == d - 1 else
                  (slice(1, n // 2),) + (slice(0, 1),) * (d - 2 - l) + (slice(0, 2),))
            self._boxes += [head + at for head in product(*before)]
        flt = np.empty(mask.shape[:-1] + (2 * mask.shape[-1],))
        self._splits = np.cumsum([flt[box].size for box in self._boxes])[:-1]
        # each kept mode stands for itself and its conjugate (Parseval)
        self._weight = np.sqrt(2.0 / np.prod(shape))
        self._negate = np.ix_(*[-np.arange(n) % n for n in shape[:-1]])

    def forward(self, values):
        """Half spectrum (`rfftn`) over the trailing grid axes."""
        return np.fft.rfftn(values, axes=self.axes)

    def inverse(self, spec):
        """Real grid values of a half spectrum (`irfftn`)."""
        return np.fft.irfftn(spec, s=self.shape, axes=self.axes)

    def pack(self, spec):
        """Real coordinates of masked, zero-mean half spectra: (*batch, *half) -> (*batch, m).

        The Euclidean norm of the coordinates is the grid l2 norm of the field.
        """
        flt = np.ascontiguousarray(spec).view(float)
        batch = flt.shape[:-self.dim]
        return np.concatenate([flt[(...,) + box].reshape(batch + (-1,)) for box in self._boxes],
                              axis=-1) * self._weight

    def unpack(self, packed):
        """Half spectra of packed coordinates, the inverse of `pack`."""
        spec = np.zeros(packed.shape[:-1] + self.poisson_mult.shape, dtype=complex)
        flt = spec.view(float)
        for box, part in zip(self._boxes, np.split(packed * (1.0 / self._weight), self._splits,
                                                   axis=-1)):
            target = flt[(...,) + box]
            target[...] = part.reshape(target.shape)
        if self.dim > 1:
            # irfftn reads only the Hermitian part of the k_last = 0 plane:
            # give every kept mode there its conjugate partner at -k
            plane = spec[..., 0]
            plane += np.conj(plane[(...,) + self._negate])
        return spec

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
