"""Message base class for simulated protocols.

Protocols define their wire format as frozen dataclasses derived from
:class:`Message`.  Two pieces of metadata drive the substrate:

``kind``
    A short human-readable tag (defaults to the class name) used by
    traces, metrics and tests.

``fairness_key``
    The *type* in the paper's sense of a **typed fair lossy link**: "if
    for every type infinitely many messages are sent, then infinitely
    many messages of each type are received".  The fair-lossy link model
    (:class:`repro.sim.links.FairLossyLink`) bounds consecutive drops per
    ``(link, fairness_key)``.  By default all messages of a class sent on
    a link share one type; subclasses may refine this (e.g. per-instance
    consensus messages).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Hashable

from repro.wire import wire_size

__all__ = ["Message"]


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for everything sent through a :class:`~repro.sim.network.Network`.

    Attributes
    ----------
    sender:
        Process id of the originator.  Receivers rely on it: the link
    	model never alters messages (per the system model, links cannot
    	create or corrupt messages).
    """

    sender: int

    @property
    def kind(self) -> str:
        """Short tag for traces and metrics; the class name by default."""
        return type(self).__name__

    def fairness_key(self) -> Hashable:
        """Message *type* for typed fair-lossy link fairness."""
        return type(self).__name__

    def wire_size(self) -> int:
        """Bytes on the wire, ``len(encode(self))`` (:mod:`repro.wire`).

        An unbounded counter grows its message; bounded fields do not.
        """
        return wire_size(self)

    def describe(self) -> str:
        """One-line rendering used by traces; override for brevity."""
        parts = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{self.kind}({parts})"
