"""Exact-arithmetic toolkit for the cohomology of Drinfeld upper half spaces
over finite fields, at desk scale: n <= 3 and small q, and n = 4 at q = 2
except for the function complex.  Size guards raise DeskScaleExceeded beyond.

Everything is computed twice where it matters: once through actual incidence
matrices and exact rational linear algebra, once through closed-form
combinatorics or brute-force point enumeration.  All arithmetic is exact;
there is no floating point anywhere.
"""

from .cohomology import h_of_x, h_of_y, hc_of_x, lefschetz_count
from .errors import DeskScaleExceeded, ExactnessError, LESUnderdetermined
from .ffgeom import drinfeld_points, enumerate_flags, enumerate_subspaces
from .gmodules import pullback_matrix, steinberg_dim, steinberg_resolution
from .orlik import build_function_complex, e2_page
from .qarith import gauss_binomial, parabolic_index, projective_count
from .rootdata import ParabolicType, standard_subset
from .tables import CohomologyTable, TwistedModule

__all__ = [
    "CohomologyTable",
    "DeskScaleExceeded",
    "ExactnessError",
    "LESUnderdetermined",
    "ParabolicType",
    "TwistedModule",
    "build_function_complex",
    "drinfeld_points",
    "e2_page",
    "enumerate_flags",
    "enumerate_subspaces",
    "gauss_binomial",
    "h_of_x",
    "h_of_y",
    "hc_of_x",
    "lefschetz_count",
    "parabolic_index",
    "projective_count",
    "pullback_matrix",
    "standard_subset",
    "steinberg_dim",
    "steinberg_resolution",
]

__version__ = "0.1.0"
