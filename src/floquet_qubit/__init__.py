"""Quasienergies and population dynamics of a qubit in an amplitude-modulated
(bichromatic) drive, with a direct Schrodinger-equation oracle.

The package re-exports the public names (``__all__``) of ``analysis``,
``dynamics``, ``floquet`` and ``model``."""

from . import analysis, dynamics, floquet, model
from .analysis import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .floquet import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = analysis.__all__ + dynamics.__all__ + floquet.__all__ + model.__all__
