"""Certify global invertibility of piecewise tensor-product Bezier maps.

The certifier encloses every Jacobian column of a map in the cone hull of
finitely many generator vectors (for Bezier maps: the derivative control
points), then checks one small linear program per column sign pattern to
find a direction with a strictly positive margin against all signed
generators. A map whose 2^(n-1) signed column cones all admit such a
certificate is globally injective on its convex domain. The same test
applies to raw matrix families supplied as per-column generator sets.
"""

from .bernstein import (
    ConstantAxis,
    ControlNet,
    PatchGrid,
    eval_many,
)
from .certify import (
    DEFAULT_THRESHOLD,
    CertificateReport,
    PatternResult,
    Witness,
    certify_map,
    certify_matrix_family,
    grid_column_generators,
)
from .cones import (
    DEFAULT_DELTA,
    Certificate,
    DegenerateColumn,
    GeneratorSet,
    SignPattern,
    enumerate_sign_patterns,
    normalize_generators,
)
from .oracle import CollisionReport, sampled_injectivity

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateReport",
    "CollisionReport",
    "ConstantAxis",
    "ControlNet",
    "DEFAULT_DELTA",
    "DEFAULT_THRESHOLD",
    "DegenerateColumn",
    "GeneratorSet",
    "PatchGrid",
    "PatternResult",
    "SignPattern",
    "Witness",
    "certify_map",
    "certify_matrix_family",
    "enumerate_sign_patterns",
    "eval_many",
    "grid_column_generators",
    "normalize_generators",
    "sampled_injectivity",
]
