"""The binary container shared by feature files (`.mtfb`) and checkpoints
(`.mtfc`): a 4-byte magic, a u32 little-endian version, then a body whose
layout each format defines. Every read checks its length first, and every
error names the file.
"""

from __future__ import annotations

import os
import stat
import struct
from contextlib import contextmanager, suppress


class FormatError(Exception):
    """A file that is not a well-formed container of its format."""


class BadMagicError(FormatError):
    pass


class VersionError(FormatError):
    pass


class TruncationError(FormatError):
    """The file's length disagrees with its contents: it ends early, or
    runs on past its last field."""


class ChecksumError(FormatError):
    pass


class NonFiniteError(FormatError):
    pass


def frame(magic: bytes, version: int) -> bytes:
    """The bytes that open a container: magic, then version."""
    return magic + struct.pack("<I", version)


class Reader:
    """A length-checked cursor over a file's bytes. Slices are views of
    the bytes read, not copies."""

    def __init__(self, raw: bytes, path):
        self.raw = memoryview(raw)
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.raw):
            raise TruncationError(
                f"{self.path}: truncated at byte {self.pos} (needed {n} "
                f"more, {len(self.raw) - self.pos} left)")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def end(self):
        """The file must end at the cursor."""
        if self.pos != len(self.raw):
            raise TruncationError(
                f"{self.path}: {len(self.raw) - self.pos} trailing bytes "
                f"after byte {self.pos}")


def input_file(path):
    """`path`, if it names a regular file. A FIFO, a device or a directory
    is a FormatError: reading one can block or never end. A missing path
    raises the OSError of `os.stat`."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise FormatError(f"{path}: not a regular file")
    return path


def output_file(path):
    """`path`, if nothing is there or a regular file is. A FIFO, a device
    or a directory is a FormatError: writing to one can block or never
    end."""
    with suppress(FileNotFoundError):
        input_file(path)
    return path


@contextmanager
def open_output(path, mode: str = "w", buffering: int = -1):
    """`path`, checked by `output_file`, open for writing. An OSError that
    names no file, as from a write to a full disk, is raised naming `path`."""
    try:
        with open(output_file(path), mode, buffering) as f:
            yield f
    except OSError as e:
        if e.filename is not None or e.errno is None:
            raise
        raise OSError(e.errno, e.strerror, str(path)) from None


def open_container(path, magic: bytes, versions) -> Reader:
    """Read the file at `path` with one `read`, check its magic and that its
    version (`.version`) is in `versions`; return a Reader at the body."""
    with open(input_file(path), "rb") as f:
        r = Reader(f.read(), path)
    if r.raw[:4] != magic:
        raise BadMagicError(f"{path}: bad magic {bytes(r.raw[:4])!r}")
    r.pos = 4
    r.version = r.u32()
    if r.version not in versions:
        raise VersionError(f"{path}: unsupported version {r.version}")
    return r
