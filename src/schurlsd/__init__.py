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
"""

__version__ = "0.1.0"
