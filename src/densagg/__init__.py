"""Aggregation of step densities on [0, 1] with certified risk bounds.

The package has four layers:

* :mod:`densagg.densities` — exact piecewise-constant densities, losses
  (KL, Hellinger, L1), sampling, class membership, file formats.
* :mod:`densagg.aggregation` — progressive-mixture aggregation and the
  minimum-distance (comparison-set) selector.
* :mod:`densagg.lowerbound` — worst-case bump families, separated word
  sets, closed-form distances, and the hypothesis audit.
* :mod:`densagg.experiments` — seeded Monte Carlo harnesses checking the
  oracle inequality, the selector bound, and the excess-risk rate.

Each layer's ``__all__`` lists its public names; the package re-exports
them all.  ``densagg.cli`` exposes all of it as the ``densagg`` command.
"""

from . import densities, aggregation, lowerbound, experiments
from .densities import *
from .aggregation import *
from .lowerbound import *
from .experiments import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += densities.__all__
__all__ += aggregation.__all__
__all__ += lowerbound.__all__
__all__ += experiments.__all__
