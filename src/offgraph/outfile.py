"""The one way this package writes a file: in place, truncating after the write.

``open(path, "w")`` truncates an existing file to zero length before writing.
On ext4 (default ``auto_da_alloc``) that truncation marks the file as being
replaced, and closing it then forces its new blocks to disk: overwriting the
241-byte eval report took 64 ms that way and 0.2 ms in place (median of 12,
2-core box). ``write_chunks`` instead opens without ``O_TRUNC``, writes every
chunk over the old bytes, and then cuts a regular file to the written
length, so the file never passes through zero length and nothing waits on
the disk. Pipes and devices (``/dev/null``, ``/dev/stdout`` on a pipe) are
written without the cut.

Durability is that of any fresh write: nothing is synced, and a crash in the
middle of an overwrite can leave the new bytes followed by the tail of the
old file.
"""

from __future__ import annotations

import os
import stat
from collections.abc import Iterable

__all__ = ["write_chunks"]


def write_chunks(path, chunks: Iterable[str]) -> None:
    """Write the concatenated ``chunks`` as UTF-8 text; a regular file is left holding exactly them.

    Chunks stream through the text layer's buffer as ``json.dump`` writes
    them, so the whole text is never held at once.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:  # takes fd over and closes it
        fh.writelines(chunks)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()  # flushes, then cuts at the current position: the written length
