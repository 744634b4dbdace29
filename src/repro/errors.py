"""Exception hierarchy for the CHARISMA reproduction.

All library-specific failures derive from :class:`ReproError` so callers
can catch one base class; subclasses mirror the major subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TraceError(ReproError):
    """A trace file or record stream is malformed or inconsistent."""


class TraceFormatError(TraceError):
    """Binary trace data failed to decode (bad magic, truncation, ...)."""


class MachineError(ReproError):
    """Invalid machine configuration or node addressing."""


class CFSError(ReproError):
    """Concurrent File System call failed (bad fd, mode violation, ...)."""


class FileNotOpenError(CFSError):
    """Operation on a file descriptor that is not open."""


class ModeViolationError(CFSError):
    """An I/O-mode constraint was violated (e.g. mode-3 size mismatch)."""


class WorkloadError(ReproError):
    """Workload generation was configured inconsistently."""


class AnalysisError(ReproError):
    """A characterization was asked of a trace that cannot support it."""


class CacheConfigError(ReproError):
    """Cache simulation parameters are invalid."""


class ObsReportError(ReproError):
    """A run report or benchmark record could not be read.

    Raised with a one-line, human-oriented message for missing files,
    truncated/non-JSON content, structurally invalid payloads, and
    reports written by a newer schema version than this code reads.
    """


class ServiceError(ReproError):
    """The trace service rejected a request or a wire payload.

    Raised by the :mod:`repro.service` wire codec for malformed chunk
    frames and by the client for HTTP-level failures; the daemon maps it
    to a 4xx response with the message as the body.
    """
