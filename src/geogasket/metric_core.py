"""Cover-count witnesses for the box-dimension regression."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass
class CoverRecord:
    """Witness that ``count`` sets of diameter <= epsilon cover a target."""

    epsilon: float
    count: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if self.count < 1:
            raise DomainError("count must be at least 1")
