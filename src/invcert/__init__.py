"""Certify global invertibility of piecewise tensor-product Bezier maps.

The certifier encloses every Jacobian column of a map in the cone hull of
finitely many generator vectors (for Bezier maps: the derivative control
points), then looks, per column sign pattern, for a direction with a
strictly positive margin against all signed generators. Each pattern
first tries a direction in closed form, ``a = C^-T s`` with ``C`` the
matrix of column centres and ``s`` the pattern's signs; every other
pattern gets one small linear program. A map whose 2^(n-1) signed
column cones all admit such a certificate is globally injective on its
convex domain. The same test
applies to raw matrix families supplied as per-column generator sets.
A report lists one plain record per pattern, built by the certifier;
``invcert.cli.report_to_dict`` turns a report into its JSON payload.
"""

from .bernstein import (
    ControlNet,
    PatchGrid,
    eval_many,
)
from .certify import (
    DEFAULT_DELTA,
    DEFAULT_THRESHOLD,
    CertificateReport,
    GeneratorSet,
    PatternResult,
    Witness,
    certify_map,
    certify_matrix_family,
)
from .oracle import CollisionReport, sampled_injectivity

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "CollisionReport",
    "ControlNet",
    "DEFAULT_DELTA",
    "DEFAULT_THRESHOLD",
    "GeneratorSet",
    "PatchGrid",
    "PatternResult",
    "Witness",
    "certify_map",
    "certify_matrix_family",
    "eval_many",
    "sampled_injectivity",
]
