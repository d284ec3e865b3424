"""The archive's scanner, run in a fresh process.

    python -m perfbench.reader < request.json

A process that has just built an archive reads it differently from one
that only opened it: the build leaves a large, seed-dependent heap behind,
and in that heap the same scan has been measured both at ~45 and ~75 MB/s.
A reader that opens the archive in a clean process is both what a user
runs and steady, so the scans are measured here.

The request (JSON on stdin) names the container and the SHA-1 of every
document.  The reply (JSON on stdout) carries the scan rates and the count
of wrong documents.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from typing import Dict, List

from repro.api import RlzArchive

from .load import settle

MB = 1e6


def scan(archive: RlzArchive, digests: Dict[int, str]) -> Dict:
    """Full scans, at least 3 and at least 1 s.

    Each document is checked as it arrives, and the time spent checking is
    taken out of the scan's time, so the rate is the archive's alone.
    """
    rates: List[float] = []
    wrong = 0
    spent = 0.0
    while len(rates) < 3 or spent < 1.0:
        settle()
        decoded = 0
        checking = 0.0
        seen = set()
        start = time.perf_counter()
        for doc_id, document in archive.iter_documents():
            check_start = time.perf_counter()
            decoded += len(document)
            seen.add(doc_id)
            wrong += int(hashlib.sha1(document).hexdigest() != digests.get(doc_id))
            checking += time.perf_counter() - check_start
        elapsed = time.perf_counter() - start - checking
        wrong += int(seen != digests.keys())
        rates.append(decoded / elapsed / MB)
        spent += elapsed
    return {"rates": rates, "wrong": wrong}


def main() -> int:
    request = json.load(sys.stdin)
    digests = {int(doc_id): digest for doc_id, digest in request["digests"].items()}
    archive = RlzArchive.open(request["path"])
    try:
        reply = scan(archive, digests)
    finally:
        archive.close()
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
