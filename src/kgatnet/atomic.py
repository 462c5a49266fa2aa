"""Artifact writes that an interruption cannot leave half done."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomically(path, data: bytes) -> None:
    """Write through a temp file next to `path` and rename it into place, so
    an interrupted write never leaves a partial file that looks finished.
    The directory is made when missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
