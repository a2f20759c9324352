"""Atomic file replacement shared by every writer of pipeline artifacts."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path, newline: str | None = None):
    """Write a sibling temp file that replaces `path` only if the block succeeds."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
