"""``AsyncRlzClient``'s tagged exchange must never swallow a cancel.

On Python 3.11, ``asyncio.wait_for`` returns the inner result when the
waiting task is cancelled in the same loop iteration the reply arrives, so
the caller's cancel is lost.  These tests land both events in one
iteration and require the cancel to win.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import DeadlineExceededError
from repro.serve import AsyncRlzClient
from repro.serve.client import _AsyncConnection
from repro.serve.protocol import PROTOCOL_V2, Opcode


class _SilentWriter:
    """Stands in for the transport: accepts frames, never replies."""

    def __init__(self) -> None:
        self.frames = []

    def write(self, frame: bytes) -> None:
        self.frames.append(frame)

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        return None


async def _pending_exchange(timeout: float = 30.0, deadline=None):
    client = AsyncRlzClient("127.0.0.1", 9, timeout=timeout)
    conn = _AsyncConnection(None, _SilentWriter(), PROTOCOL_V2)
    task = asyncio.ensure_future(client._mux_exchange(conn, Opcode.PING, b"", deadline))
    while not conn.futures:
        await asyncio.sleep(0)
    (request_id, future), = conn.futures.items()
    return task, conn, request_id, future


def test_cancel_landing_with_the_reply_propagates():
    async def scenario():
        task, conn, request_id, future = await _pending_exchange()
        # Both in the same iteration: the reply resolves the future, then
        # the caller's cancel arrives before the task runs again.
        future.set_result((Opcode.R_PONG, b""))
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert request_id not in conn.futures

    asyncio.run(scenario())


def test_cancel_before_any_reply_releases_the_request_id():
    async def scenario():
        task, conn, request_id, future = await _pending_exchange()
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert future.cancelled()
        assert request_id not in conn.futures

    asyncio.run(scenario())


def test_reply_without_cancel_is_returned():
    async def scenario():
        task, conn, request_id, future = await _pending_exchange()
        future.set_result((Opcode.R_PONG, b"ok"))
        assert await task == (Opcode.R_PONG, b"ok")
        assert request_id not in conn.futures

    asyncio.run(scenario())


def test_silent_server_times_out_and_releases_the_request_id():
    async def scenario():
        task, conn, request_id, _ = await _pending_exchange(timeout=0.05)
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(task, 5.0)
        assert request_id not in conn.futures

    asyncio.run(scenario())


def test_expired_deadline_is_a_deadline_error():
    from repro.serve.retry import Deadline

    async def scenario():
        task, conn, request_id, _ = await _pending_exchange(deadline=Deadline.from_ms(50))
        with pytest.raises(DeadlineExceededError):
            await asyncio.wait_for(task, 5.0)
        assert request_id not in conn.futures

    asyncio.run(scenario())
