"""A functional model of Intel's Concurrent File System (CFS).

CFS presented a Unix-like interface extended with four *I/O modes* that
coordinate parallel access to a shared file (§2.4 of the paper):

- **mode 0** — every process has its own file pointer;
- **mode 1** — one file pointer shared by all processes;
- **mode 2** — shared pointer with round-robin access ordering enforced;
- **mode 3** — mode 2 plus identical request sizes.

Files are striped across all I/O-node disks round-robin in 4 KB blocks;
compute nodes send requests straight to the owning I/O node, and only the
I/O nodes have a buffer cache.

This package implements that system functionally — real bytes move
through striped, sparse block storage — so the workload generator's
applications run against an actual file system and the instrumentation
layer (:mod:`repro.cfs.instrument`) records exactly the calls they make.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("BlockCache", "CacheStats"),
    "file": ("CFSFile", "SharedPointerGroup"),
    "filesystem": ("ConcurrentFileSystem", "FileHandle"),
    "instrument": ("InstrumentedCFS",),
    "modes": ("IOMode",),
    "striping": ("Striping",),
})

__all__ = [
    "BlockCache",
    "CacheStats",
    "CFSFile",
    "ConcurrentFileSystem",
    "FileHandle",
    "InstrumentedCFS",
    "IOMode",
    "SharedPointerGroup",
    "Striping",
]
