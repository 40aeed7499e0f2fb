"""Root numbers of elliptic curves and semistable Jacobians over extensions
with prescribed Galois groups: orbit-parity certificates, Mestre pencils,
constrained specialization search, and local root-number engines."""

__version__ = "0.1.0"
