"""Exception hierarchy for the ``repro`` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subsystems define
narrower classes here rather than in their own modules so that the full
failure surface is visible in one place.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# DNS wire protocol
# ---------------------------------------------------------------------------

class DnsError(ReproError):
    """Base class for DNS protocol errors."""


class NameError_(DnsError):
    """A domain name is syntactically invalid (label/length limits)."""


class WireFormatError(DnsError):
    """A DNS message could not be encoded to or decoded from wire format."""


class TruncatedMessageError(WireFormatError):
    """The wire buffer ended before the message was complete."""


class CompressionLoopError(WireFormatError):
    """A compression pointer chain in a wire message formed a loop."""


class ZoneError(DnsError):
    """A zone is malformed (out-of-zone data, a CNAME beside other data, ...)."""


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

class ResolutionError(ReproError):
    """Base class for resolution failures observed by a client."""


class QueryTimeout(ResolutionError):
    """No response arrived within the client's timeout."""


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """Base class for errors in the discrete-event simulator."""


class RoutingError(SimulationError):
    """No route exists between two simulated hosts."""


class AddressError(SimulationError):
    """An address is malformed, unassigned, or already in use."""


class SocketError(SimulationError):
    """Invalid use of a simulated socket (e.g. send on a closed socket)."""


# ---------------------------------------------------------------------------
# CDN / MEC
# ---------------------------------------------------------------------------

class CdnError(ReproError):
    """Base class for CDN subsystem errors."""


class ContentNotFound(CdnError):
    """The requested content is not in the catalog or any reachable tier."""


class MecError(ReproError):
    """Base class for MEC orchestrator errors."""


class ServiceNotFound(MecError):
    """A cluster service name did not resolve to any registered service."""


class CapacityError(MecError):
    """An orchestrator placement failed because no node has capacity."""
