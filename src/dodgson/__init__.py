"""Exact analysis of Dodgson elections.

Scores, winners and rankings under Lewis Carroll's 1876 voting rule, plus
deterministic election-gadget constructions (a matching reduction, score
summation, a parity combiner, and election merges) with empirical
verification harnesses for all of their contracts.
"""

# Each submodule's ``__all__`` is exactly its share of the package API:
# names the modules share with each other stay out of it.
from . import elections, gadgets, matching, scoring
from .elections import *
from .gadgets import *
from .matching import *
from .scoring import *

__version__ = "0.1.0"

__all__ = [*elections.__all__, *scoring.__all__, *matching.__all__, *gadgets.__all__]
