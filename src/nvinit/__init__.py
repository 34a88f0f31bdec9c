"""Rate-model toolkit for laser initialization of the NV nitrogen spin.

The package models a six-level electron/nuclear register under optical
pumping, ideal microwave/RF swap pulses, FID-based population readout
and per-segment laser-duration optimization.  See the module docstrings
for the physics conventions (basis order, units, rate constants).
The package exports exactly each module's ``__all__``.
"""

from . import config, hamiltonian, optimizer, pulses, spinmodel, tomography
from .config import *
from .hamiltonian import *
from .optimizer import *
from .pulses import *
from .spinmodel import *
from .tomography import *

__version__ = "0.1.0"

__all__ = [name for module in (spinmodel, hamiltonian, pulses, tomography, optimizer, config)
           for name in module.__all__] + ["__version__"]
