"""Host-speed probe: a fixed piece of work that uses numpy and scipy but not microhom.

The 2-core virtual machines this benchmark was tuned on change speed by up to
2x over minutes, because other tenants share the host.  A run's median sweep
time then says as much about the host as about the program: over eight
seeds the median wall time of a run spread by 24-27% (quartile distance over
median), more than any bound a regression check could use.  Timing this
probe right before and right after each sweep (and each set-up sample)
measures the host's speed at that moment, and scaling the wall time by it
takes most of that drift out (7-9% on the same runs).  See README.md,
"Noise and bounds".

The probe mixes the kinds of work a sweep does: interpreter-bound Python,
small 1D and 2D FFTs, sparse triangular solves and array arithmetic.  It
never changes, so a faster or slower program moves the corrected time
exactly as it moves the wall time.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# probe seconds that define the reference host: the median of one probe on
# the 2-core machine the workloads were tuned on, so corrected sweep times
# read close to the wall times seen there
REFERENCE_S = 0.37


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 48
        diff = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        laplace = sp.kron(diff, eye) + sp.kron(eye, diff) + 0.1 * sp.eye(n * n)
        self.lu = spla.splu(laplace.tocsc())
        self.b = rng.standard_normal(n * n)
        self.x1 = rng.standard_normal(256)
        self.x2 = rng.standard_normal((64, 64))
        self.x3 = rng.standard_normal((8, 64, 64, 8))

    def seconds(self):
        """Wall time of one pass of the fixed work."""
        t0 = time.perf_counter()
        s = 0
        for i in range(450000):
            s += i * i % 7
        for _ in range(4500):
            np.fft.ifft(np.fft.fft(self.x1))
        for _ in range(450):
            np.fft.ifft2(np.fft.fft2(self.x2))
        for _ in range(240):
            self.lu.solve(self.b)
        for _ in range(60):
            np.roll(self.x3, 1, axis=0) * 0.5 + self.x3
        return time.perf_counter() - t0


def corrected(walls, probes):
    """Each wall time scaled to the reference host.

    `probes` holds one probe time before the first sample and one after each
    sample, so sample i lies between probes i and i + 1; their mean is the
    host's speed during it."""
    if len(probes) != len(walls) + 1:
        raise ValueError(f"{len(walls)} samples need {len(walls) + 1} probes, got {len(probes)}")
    return [w * REFERENCE_S / (0.5 * (a + b)) for w, a, b in zip(walls, probes, probes[1:])]
