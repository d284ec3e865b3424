"""Run ``repro serve`` in a child process, so the load generator never
shares an interpreter lock with the server it measures."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Set

from .report import peak_rss_mb

_BANNER = re.compile(rb" on ([0-9.]+):(\d+)\s*$")
# Pins itself to the CPUs named in argv[1] (if any) before anything
# starts a thread, then runs ``repro serve`` with the remaining arguments.
_SERVE = (
    "import os, sys\n"
    "cpus = sys.argv.pop(1)\n"
    "if cpus:\n"
    "    os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(',')})\n"
    "from repro.cli import serve_main\n"
    "sys.exit(serve_main(sys.argv[1:]))"
)


@contextmanager
def separate_cpus() -> Iterator[Optional[Set[int]]]:
    """Give the server one CPU and this process (the load) another.

    Yields the server's CPU set and pins this process elsewhere until the
    block ends; with fewer than two CPUs nothing is pinned.  Client and
    server then never preempt each other, which steadies the tail.
    """
    available = sorted(os.sched_getaffinity(0))
    if len(available) < 2:
        yield None
        return
    os.sched_setaffinity(0, {available[1]})
    try:
        yield {available[0]}
    finally:
        os.sched_setaffinity(0, set(available))


class ServerProcess:
    """One ``repro serve`` child on an ephemeral loopback port.

    ``cache_capacity`` 0 serves without a decode cache; otherwise the
    server's LRU tier holds that many decoded documents.  ``cpus`` pins
    the server (see :func:`separate_cpus`).
    """

    def __init__(
        self,
        src: Path,
        archive: Path,
        log: Path,
        cache_capacity: int = 0,
        cpus: Optional[Set[int]] = None,
    ) -> None:
        pin = ",".join(str(cpu) for cpu in sorted(cpus or ()))
        args: List[str] = [sys.executable, "-c", _SERVE, pin, str(archive), "--port", "0"]
        if cache_capacity:
            args += ["--cache", "lru", "--cache-capacity", str(cache_capacity)]
        env = dict(os.environ, PYTHONPATH=str(src))
        self._log = log
        with log.open("wb") as stderr:
            self._process = subprocess.Popen(
                args, stdout=subprocess.PIPE, stderr=stderr, env=env
            )
        self.host = "127.0.0.1"
        self.port = self._await_banner(timeout=60.0)

    def _await_banner(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        stdout = self._process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.2)
            if ready:
                line = stdout.readline()
                match = _BANNER.search(line)
                if match:
                    self.host = match.group(1).decode()
                    return int(match.group(2))
            if self._process.poll() is not None:
                break
        self.stop()
        raise RuntimeError(
            "repro serve did not start: " + self._log.read_text(errors="replace")[-2000:]
        )

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``), in MB."""
        return peak_rss_mb(self._process.pid)

    def stop(self, timeout: float = 15.0) -> Optional[int]:
        """SIGTERM (graceful drain), then SIGKILL; always reaps the child."""
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGTERM)
            try:
                self._process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._process.stdout.close()
        return self._process.returncode

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
