"""Output digests for the default seed; standard library only.

``digests.json`` maps each workload to a list of SHA-256 digests, one
per op index in the workload's input cycle, recorded at
``DEFAULT_SEED``.  Other seeds are checked by invariants only.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

WORKLOADS = ("sweep-shared", "selectk-scan", "cli-tall", "sweep-par")
DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).with_name("digests.json")

# sweep-par runs the sweep-shared grid, so it must reproduce its digests
DIGEST_ALIASES = {"sweep-par": "sweep-shared"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_mismatch(digests: dict, workload: str, seed: int, index: int, got: str) -> str | None:
    """A message when ``got`` differs from the recorded digest, else None."""
    if seed != DEFAULT_SEED:
        return None
    expected = digests[DIGEST_ALIASES.get(workload, workload)]
    want = expected[index % len(expected)]
    if got != want:
        return f"{workload} op {index}: digest {got[:16]}... != recorded {want[:16]}..."
    return None


def self_test(digests: dict) -> None:
    """Feed one corrupted digest per workload and require the check to fail."""
    for workload, expected in digests.items():
        good = expected[0]
        if digest_mismatch(digests, workload, DEFAULT_SEED, 0, good) is not None:
            raise AssertionError(f"{workload}: recorded digest rejected")
        bad = ("0" if good[0] != "0" else "1") + good[1:]
        if digest_mismatch(digests, workload, DEFAULT_SEED, 0, bad) is None:
            raise AssertionError(f"{workload}: corrupted digest accepted")
