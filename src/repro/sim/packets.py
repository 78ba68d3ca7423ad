"""Packet accounting: a message's bytes cut into MTU-sized packets.

The paper counts messages; packet-efficiency work (Bramas et al.,
arXiv:1505.05025) counts the bounded-size packets a deployment pays
for.  A message's size is its real encoding (:mod:`repro.wire`), and
sim and live packet blocks both count it with :func:`packet_count`.
"""

from __future__ import annotations

__all__ = ["DEFAULT_MTU", "packet_count"]

# Packets of up to this many bytes cross a link as one unit.  Small on
# purpose: unbounded-counter growth shows as extra packets within
# simulated horizons, not only in the asymptote.
DEFAULT_MTU = 16


def packet_count(size: int, mtu: int = DEFAULT_MTU) -> int:
    """Packets needed to carry ``size`` bytes over links with ``mtu``."""
    if mtu <= 0:
        raise ValueError("mtu must be positive")
    return max(1, -(-size // mtu))
