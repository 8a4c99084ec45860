"""Shared helpers importable from test modules."""

from __future__ import annotations

import json

import numpy as np

from repro.resilience.integrity import attach_crc


def collect_trace(chunks) -> tuple[np.ndarray, np.ndarray]:
    """Materialize a chunked (addresses, is_write) trace."""
    addrs, writes = [], []
    for a, w in chunks:
        addrs.append(np.asarray(a))
        writes.append(np.asarray(w))
    if not addrs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    return np.concatenate(addrs), np.concatenate(writes)


def mark_adopted(path, fingerprint: str) -> str:
    """Rebind a journal to ``fingerprint`` the way journal adoption did.

    Earlier builds could adopt a journal written under another
    configuration: they rewrote its header under the new fingerprint and
    kept the old one as ``adopted_from`` (with a valid checksum). Returns
    the fingerprint the journal held before.
    """
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    old = header["fingerprint"]
    lines[0] = json.dumps(attach_crc(
        {"kind": "header", "version": header["version"],
         "fingerprint": fingerprint, "adopted_from": old}))
    path.write_text("\n".join(lines) + "\n")
    return old
