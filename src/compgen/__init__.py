"""Benchmark toolkit for compositional generalization in semantic parsing."""

__version__ = "0.1.0"

from .data import DerivationTrace, Example, PredictionRecord  # noqa: F401
from .dbca import DivergenceReport  # noqa: F401
from .sparql import IrQuery, SparqlQuery  # noqa: F401
from .splits import SplitResult, SplitSpec  # noqa: F401
