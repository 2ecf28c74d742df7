"""Limiting spectra of Schur-Hadamard products of patterned random matrices.

Two independent verification channels:

* a Monte Carlo channel (``ensemble``, ``spectral``) that realizes patterned
  matrices, scales their entrywise products, and estimates spectral moments
  and distances to reference laws;
* an exact combinatorial channel (``words``, ``circuits``, ``oracle``) that
  counts link-constrained circuits, recovers each word's limit as an exact
  rational from counts at small n, and assembles the moments the spectra
  must match. Joint relation verdicts are exact too: a rank certificate
  proves a joint limit is 0, and the remaining classes are fitted.

``linkfn`` defines the pattern vocabulary shared by both channels and
``cli`` drives the shipped verification runs.

Importing the package pins BLAS to one thread per call, unless the caller has
set the thread variable already. Monte Carlo runs spread whole trials over
worker threads instead, and the last bits of an eigensolve depend on the BLAS
thread count, so the pin also keeps report bytes equal across machines. It
works only when this package is imported before numpy, which is why it lives
here and no submodule is imported above it.
"""

import os

#: BLAS thread variables pinned to "1" unless already set.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
