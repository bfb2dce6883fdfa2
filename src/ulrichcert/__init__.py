"""Exact-arithmetic non-existence certificates for low-rank Ulrich bundles
on Veronese embeddings of complete intersections.

The package re-exports nothing: import each name from its module, for
example ``from ulrichcert.certify import certify_veronese``."""

__version__ = "0.1.0"
