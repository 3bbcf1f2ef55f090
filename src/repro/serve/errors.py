"""Typed errors of the serving subsystem.

Every rejection the service can hand back is a distinct exception type, so
clients can tell load shedding (retry later, :class:`QueueFullError`) from
shutdown (:class:`ServiceClosedError`) from a request that can never
succeed (:class:`RequestError`) or a rating-delta batch the data plane
refuses whole (:class:`InvalidUpdateError`).
"""

from __future__ import annotations

__all__ = [
    "ServeError",
    "QueueFullError",
    "ServiceClosedError",
    "UnknownModelError",
    "RequestError",
    "InvalidUpdateError",
]


class ServeError(Exception):
    """Base class of all serving-layer errors."""


class QueueFullError(ServeError):
    """Load shed: the bounded request queue is full.

    Raised *immediately* at submission time — the service never blocks a
    caller waiting for queue space.  Clients should back off and retry.
    """


class ServiceClosedError(ServeError):
    """The service (or queue) no longer accepts work.

    Also set on the futures of requests discarded by a non-draining
    shutdown, so no submission ever goes silently unanswered.
    """


class UnknownModelError(ServeError, KeyError):
    """A model name not present in the registry."""


class RequestError(ServeError, ValueError):
    """A malformed request (empty item list, already-rated target, ...)."""


class InvalidUpdateError(ServeError, ValueError):
    """A rating-delta batch rejected whole before any of it applied.

    Raised for a non-finite value, a non-integral or out-of-range user or
    item id, or (at the service) a rating outside the dataset's scale.  A
    rejected batch leaves the graph generation, the caches and the
    ``RatingLog`` exactly as they were.
    """
