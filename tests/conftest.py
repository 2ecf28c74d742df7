"""Import the package before anything imports numpy, so that the suite runs
under the package's one-thread BLAS pin, as the command line does."""

import schurlsd  # noqa: F401
