"""genalign: patient-level aggregation of single-cell embeddings, karyotype
encoding, supervised genetic alignment, and retrieval evaluation."""

__version__ = "0.1.0"

# the environment variables that size the BLAS thread pool
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
