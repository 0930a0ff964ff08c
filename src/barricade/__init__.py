"""barricade: simulation-guided barrier-certificate synthesis and interval
checking for feedforward neural-network controlled systems, demonstrated on
Dubins-car path following.
"""

from ._version import __version__

# train (CMA-ES) is imported on first use: `from barricade import train`.
from . import (symexpr, interval, network, plant, simulate, lpgen, dsat,
               certify)

__all__ = [
    "__version__", "symexpr", "interval", "network", "plant", "simulate",
    "lpgen", "dsat", "certify", "train",
]
