"""Exact-arithmetic toolkit for the cohomology of Drinfeld upper half spaces
over finite fields, at desk scale: n <= 3 and small q, and n = 4 at q = 2
except for the function complex.  Size guards raise DeskScaleExceeded beyond.

Everything is computed twice where it matters: once through actual incidence
matrices and exact rational linear algebra, once through closed-form
combinatorics or brute-force point enumeration.  All arithmetic is exact;
there is no floating point anywhere.

The package re-exports no names: import each from its submodule, so that a
command loads (and, without a bytecode cache, compiles) only the layers it
runs.
"""

__version__ = "0.1.0"
