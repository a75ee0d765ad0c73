"""The real-clock paths stop boundedly and leave nothing behind.

``UdpBackend`` runs an asyncio loop on its own thread, ``RealtimeDriver``
is watched by a ``DriverWatchdog`` thread, and ``TelemetryServer`` serves
HTTP from a thread per request.  After ``close()`` / ``stop()`` — also
when an exception ended the run part-way — every thread they started is
gone and every descriptor they opened is closed: ``threading.enumerate()``
and ``/proc/self/fd`` read what they read before the run.

Each test runs under a hard wall-clock cap (``SIGALRM``), so a hang fails
the test instead of the job.
"""

import os
import signal
import threading
import urllib.request

import pytest

from repro.sim.kernel import Simulator
from repro.transport import UdpBackend
from repro.transport.realtime import DriverWatchdog, RealtimeDriver
from repro.unites.obs import TelemetryServer

pytestmark = pytest.mark.skipif(
    not (hasattr(signal, "SIGALRM") and os.path.isdir("/proc/self/fd")),
    reason="POSIX signals and /proc")

#: hard wall-clock cap per test, seconds
CAP_S = 30


class Boom(Exception):
    """The exception that ends a run part-way."""


def _boom():
    raise Boom("raised on the driver thread mid-run")


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def capped_and_clean():
    """A hard cap, then: the same threads and descriptors as before."""
    def _expired(signum, frame):
        raise TimeoutError("hard wall-clock cap reached")

    threads, fds = set(threading.enumerate()), _fd_count()
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(CAP_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert set(threading.enumerate()) == threads
    assert _fd_count() == fds


# ---------------------------------------------------------------------------
# UdpBackend: the loop thread, its selector and self-pipe, the sockets
# ---------------------------------------------------------------------------
def test_udp_backend_close(capped_and_clean):
    backend = UdpBackend(local_name="A", seed=1)
    a, b = backend.pair()
    a.send(b"across the loop thread")
    assert b.recv(timeout=5.0).ok
    backend.run(until=backend.clock.now() + 0.05)
    backend.close()
    a.close()
    b.close()


def test_udp_backend_after_an_exception_mid_run(capped_and_clean):
    with pytest.raises(Boom):
        with UdpBackend(local_name="A", seed=2) as backend:
            backend.pair()
            backend.driver.post(_boom)
            backend.run(until=backend.clock.now() + 5.0)
    assert backend._loop.is_closed() and not backend.driver.running


# ---------------------------------------------------------------------------
# RealtimeDriver: starts no thread of its own; its watchdog does
# ---------------------------------------------------------------------------
def test_realtime_driver_and_watchdog_stop(capped_and_clean):
    driver = RealtimeDriver(Simulator())
    watchdog = DriverWatchdog(driver, stall_after=1.0, check_every=0.01).start()
    fired = []
    driver.sim.schedule(0.01, fired.append, True)
    driver.run(duration=0.05)
    watchdog.stop()
    assert fired == [True] and not driver.running and not watchdog.incidents


def test_realtime_driver_after_an_exception_mid_run(capped_and_clean):
    driver = RealtimeDriver(Simulator())
    watchdog = DriverWatchdog(driver, stall_after=1.0, check_every=0.01).start()
    try:
        driver.post(_boom)
        with pytest.raises(Boom):
            driver.run(duration=5.0)
        # not "running": the watchdog would read a stall that is not one
        assert not driver.running
    finally:
        watchdog.stop()
    assert not watchdog.incidents


# ---------------------------------------------------------------------------
# TelemetryServer: the serving thread, a thread per request, the socket
# ---------------------------------------------------------------------------
def _scrape(server: TelemetryServer) -> bytes:
    with urllib.request.urlopen(server.url + "/metrics", timeout=5.0) as resp:
        return resp.read()


def test_telemetry_server_stop(capped_and_clean):
    server = TelemetryServer(port=0).start()
    _scrape(server)
    _scrape(server)
    server.stop()
    assert server.requests_served == 2


def test_telemetry_server_after_an_exception_mid_run(capped_and_clean):
    with pytest.raises(Boom):
        with TelemetryServer(port=0) as server:
            _scrape(server)
            _boom()
    assert server.requests_served == 1
