"""The binary container shared by feature files (`.mtfb`) and checkpoints
(`.mtfc`): a 4-byte magic, a u32 little-endian version, then a body whose
layout each format defines. Every read checks its length first, and every
error names the file.
"""

from __future__ import annotations

import struct


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


def open_container(path, magic: bytes, version: int) -> Reader:
    """Read the file at `path` with one `read`, check its magic and
    version, and return a Reader standing at the first byte of the body."""
    with open(path, "rb") as f:
        r = Reader(f.read(), path)
    if r.raw[:4] != magic:
        raise BadMagicError(f"{path}: bad magic {bytes(r.raw[:4])!r}")
    r.pos = 4
    found = r.u32()
    if found != version:
        raise VersionError(f"{path}: unsupported version {found}")
    return r
