"""Exception types shared across the package.

Three failure families, kept deliberately small:

- InvalidInputError: the caller handed us something malformed (bad JSON, a
  tree with the wrong arity, a graph that is not stacked). CLI exit code 2.
- GeometryError: an exact-arithmetic primitive was asked something
  degenerate (dimension mismatch, vertical hyperplane, flat ridge).
- StageInvariantError: a pipeline stage produced values that violate a
  guarantee the construction is supposed to deliver. These are bug
  detectors, never expected on valid inputs, and carry the stage name plus
  a witness for the failing object.
"""

from __future__ import annotations


class GridLiftError(Exception):
    """Base class for all errors raised by gridlift."""


class InvalidInputError(GridLiftError):
    """Malformed or out-of-contract input supplied by the caller."""


class GeometryError(GridLiftError):
    """Degenerate input to an exact geometry primitive."""


class StageInvariantError(GridLiftError):
    """A pipeline stage invariant failed; indicates an implementation bug."""

    def __init__(self, stage: str, message: str, witness: object = None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message
        self.witness = witness
