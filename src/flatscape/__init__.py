"""flatscape: a desk-scale laboratory for classical and quantum annealing
runtimes on flat maximum-independent-set energy landscapes."""

__version__ = "0.1.0"

from .graphs import Graph, generate_star, generate_unit_disk  # noqa: F401
from .landscape import (LandscapeProfile, classical_bound,  # noqa: F401
                        independence_polynomial, unimodality_scan)
