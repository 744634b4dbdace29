"""I/O-mode usage: §4.6.

CFS offers four file-access modes, yet over 99 % of traced files used
mode 0 (independent file pointers).  The paper's explanation: real files
usually involve *more than one* request size or interval size, which the
automatic shared-pointer modes cannot express — plus the suspicion that
the synchronized modes were simply slower.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.frame import TraceFrame


@dataclass(frozen=True)
class ModeUsage:
    """Files and opens per CFS I/O mode."""

    files_per_mode: dict[int, int]
    opens_per_mode: dict[int, int]

    @property
    def n_files(self) -> int:
        """Total files with at least one open."""
        return sum(self.files_per_mode.values())

    @property
    def mode0_file_fraction(self) -> float:
        """Fraction of files whose (first) open used mode 0."""
        n = self.n_files
        return self.files_per_mode.get(0, 0) / n if n else 0.0

    def fractions(self) -> dict[int, float]:
        """File fraction per mode."""
        n = max(self.n_files, 1)
        return {m: c / n for m, c in sorted(self.files_per_mode.items())}


def mode_usage(frame: TraceFrame) -> ModeUsage:
    """Compute mode usage over files and over opens.

    A file's mode is taken from its first OPEN in the trace (CFS requires
    all of a job's opens of a shared file to agree on the mode).
    """
    # imported here: repro.core.streaming imports this module
    from repro.core import streaming

    return streaming.finalize_modes(streaming.fold(frame))
