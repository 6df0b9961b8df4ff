"""A fixed reference kernel that measures how fast the machine runs now.

The benchmark runs on shared hosts whose speed drifts by 10-30 % over
minutes, far more than its bounds allow; medians within a run cannot
remove a drift that lasts longer than the run.  So a run also times this
kernel, interleaved with its passes, and reports every time scaled by
REFERENCE_S / (the kernel's median time in the run): seconds on a machine
that runs the kernel in REFERENCE_S.

The kernel does the same kinds of work as the solver (sparse assembly
from coordinates, SuperLU factorizations and solves, interpreted loops
over Python objects, and numpy passes over fresh memory larger than the
L2 cache), so a slower host slows both alike.  It uses only numpy and
scipy, never the solver, and its inputs are fixed.  Its allocations are
either small or a fresh mmap, so its time does not depend on what the
process allocated and freed before (glibc moves its mmap threshold when
large blocks are freed); no change to the solver can change it.
"""

from __future__ import annotations

import mmap

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The kernel's median time between the passes of a run on the machine the
# baseline was measured on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1), so times reported there read about as measured.
REFERENCE_S = 0.008

_N = 16
_INDEX = np.arange(_N * _N).reshape(_N, _N)
_BIG = np.random.default_rng(0).random(200_000)


def kernel():
    """The fixed work, about REFERENCE_S long; returns a checksum."""
    i = _INDEX
    total = 0.0
    for shift in (4.0, 4.5, 5.0):
        rows, cols, vals = [i.ravel()], [i.ravel()], [np.full(i.size, shift)]
        for a, b in ((i[1:], i[:-1]), (i[:-1], i[1:]),
                     (i[:, 1:], i[:, :-1]), (i[:, :-1], i[:, 1:])):
            rows.append(a.ravel())
            cols.append(b.ravel())
            vals.append(np.full(a.size, -1.0))
        a = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(i.size, i.size)).tocsc()
        total += float(spla.splu(a).solve(np.ones(i.size))[0])
    counts = {}
    for k in range(3000):
        counts[k % 97] = counts.get(k % 97, 0.0) + 0.5 * k
    fresh = mmap.mmap(-1, _BIG.nbytes)
    work = np.frombuffer(fresh, dtype=np.float64)
    np.multiply(_BIG, total, out=work)
    work.sort()
    np.sqrt(work, out=work)
    np.cumsum(work, out=work)
    total += float(work[-1]) + sum(counts.values())
    del work
    fresh.close()
    return total
