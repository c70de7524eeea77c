"""Exception hierarchy for the sleeping-model simulator.

Every error raised by :mod:`repro.sim` derives from :class:`SimulationError`
so callers can catch simulator problems with a single ``except`` clause while
still distinguishing the specific failure mode when they need to.  Every
class round-trips through :mod:`pickle` with its attributes, so an error
raised in a pool worker re-raises in the caller as itself.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ProtocolError(SimulationError):
    """A protocol violated the node API.

    Raised when a protocol yields an unknown action, sends to a non-neighbor,
    sleeps for a non-integer duration, or produces a payload that cannot be
    encoded as a CONGEST message.
    """


class CongestViolationError(SimulationError):
    """A message exceeded the configured CONGEST bit budget."""

    def __init__(self, sender: int, recipient: int, bits: int, limit: int):
        self.sender = sender
        self.recipient = recipient
        self.bits = bits
        self.limit = limit
        super().__init__(
            f"message from {sender} to {recipient} is {bits} bits, "
            f"exceeding the CONGEST limit of {limit} bits"
        )

    def __reduce__(self):
        return type(self), (self.sender, self.recipient, self.bits, self.limit)


class MaxRoundsExceededError(SimulationError):
    """The simulation did not terminate within ``max_rounds`` rounds."""

    def __init__(self, max_rounds: int, unfinished: int):
        self.max_rounds = max_rounds
        self.unfinished = unfinished
        super().__init__(
            f"simulation exceeded {max_rounds} rounds with "
            f"{unfinished} node(s) still unfinished"
        )

    def __reduce__(self):
        return type(self), (self.max_rounds, self.unfinished)
