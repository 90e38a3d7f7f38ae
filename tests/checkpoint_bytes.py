"""Byte-level edits of saved checkpoints, for tests of what loading refuses."""

import struct


def write_nan_into_blob(path, name: str) -> None:
    """Overwrite the first value of blob ``name`` in the checkpoint at ``path`` with NaN.

    ``save_checkpoint`` refuses a non-finite state, so a NaN checkpoint can
    only come from editing a finite one.
    """
    raw = bytearray(path.read_bytes())
    key = struct.pack("<H", len(name)) + name.encode()
    pos = raw.index(key) + len(key)
    (rank,) = struct.unpack_from("<H", raw, pos)
    pos += 2 + 4 * rank
    raw[pos:pos + 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))
