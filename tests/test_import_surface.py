"""What a cold process loads to run a simulated world — a count, not a timing.

``import repro.core.system`` is what every bench child, pytest run and
shard or sweep worker pays before its first event.  The child process below
records what the interpreter loaded at start-up, then imports it, builds an
``AdaptiveSystem`` (which imports the sim backend, and with it the
``repro.transport`` package) and reports ``sys.modules``: numpy, the
routing library, the UDP stack and the HTTP stack must not be among the
modules that the import and ``AdaptiveSystem()`` added on top of the
start-up set, and the total stays under a ceiling (649 while ``networkx``,
``asyncio`` and ``http.server`` were imported eagerly, 317 while numpy
was).  Touching the two PEP 562 attributes then loads exactly the objects
their modules define.

numpy is loaded at a world's first draw from a distribution, not with the
program or at a uniform draw: the churn world on the stock LAN, whose
links draw for bit errors, runs without it — and must have built a
``link:*`` stream, so that half cannot pass by never running the draw
path — while the same world with a voice source on its own stream, which
draws exponentials, loads it.

The deny-list is relative to start-up because ``site`` may import modules
before the child's first line: a ``.pth`` hook in site-packages that runs
``import certifi`` pulls in ``importlib.resources``, then ``pathlib``, then
``urllib.parse``, and none of that is the program's doing.  No ``repro``
module may be in the start-up set, so the baseline cannot hide the
program's own imports; a deny-listed module that start-up already loaded
cannot be charged to the program on such an interpreter.  The ceiling
counts every module, start-up's included.  On py3.11 the counts after the
import / after ``AdaptiveSystem()`` read 208 / 220 on an interpreter whose
hook imports ``certifi`` and 175 / 188 under ``python -S`` (306 / 317 and
275 / 287 with no hook while numpy was imported with the program).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DENIED = ("numpy", "networkx", "asyncio", "http", "email", "ssl", "socket",
          "selectors", "concurrent.futures", "logging", "unittest", "urllib")
CEILING = 235

CHILD = """
import sys; startup = sorted(sys.modules)
import json
early = [m for m in startup if m.partition(".")[0] == "repro"]
assert not early, f"start-up loaded {early}"
import repro.core.system
cold = len(sys.modules)
repro.core.system.AdaptiveSystem()
world = sorted(sys.modules)
import repro.transport, repro.unites.obs
listed = ("UdpBackend" in dir(repro.transport),
          "TelemetryServer" in dir(repro.unites.obs))
from repro.transport import UdpBackend
import repro.transport.udp, repro.unites.obs.server
same = (UdpBackend is repro.transport.udp.UdpBackend,
        repro.transport.UdpBackend is UdpBackend,
        repro.unites.obs.TelemetryServer
        is repro.unites.obs.server.TelemetryServer)
try:
    repro.transport.NoSuchBackend
except AttributeError:
    raises = True
else:
    raises = False
print(json.dumps({"startup": startup, "cold": cold, "world": world,
                  "listed": listed, "same": same, "raises": raises,
                  "after": sorted(sys.modules)}))
"""


def test_cold_process_loads_only_what_a_simulated_world_runs():
    out = subprocess.run([sys.executable, "-c", CHILD], check=True, timeout=60,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    seen = json.loads(out.splitlines()[-1])
    loaded = [m for m in DENIED
              if m in seen["world"] and m not in seen["startup"]]
    assert not loaded, f"a simulated world loaded {loaded}"
    assert seen["cold"] <= len(seen["world"]) <= CEILING
    assert seen["listed"] == [True, True]
    assert seen["same"] == [True, True, True] and seen["raises"]
    assert {"asyncio", "http.server"} <= set(seen["after"])


#: a 40-connection churn world run to its horizon on the stock LAN, whose
#: 1e-6 BER links draw uniform floats; argv "voice" adds a talk-spurt
#: source drawing exponentials from its own stream
CHURN_CHILD = """
import json, sys
startup = set(sys.modules)
from repro.core.churn import ChurnScenario
sc = ChurnScenario(n_connections=40, seed=7)
if sys.argv[1] == "voice":
    from repro.apps.voice import VoiceSource

    class Sink:
        def send(self, payload):
            pass

    VoiceSource(sc.system.sim, Sink(), rng=sc.system.rng.stream("voice")).start()
sc.run(until=20.0)
print(json.dumps({"established": sc.collect()["established"],
                  "links": sum(n.startswith("link:") for n in sc.system.rng._streams),
                  "numpy": "numpy" in sys.modules and "numpy" not in startup}))
"""


def test_a_world_that_never_draws_never_loads_numpy():
    """Never draws from a distribution, that is: a world whose every draw
    is a uniform float runs without numpy; one exponential loads it."""
    seen = {}
    for world in ("stock", "voice"):
        out = subprocess.run([sys.executable, "-c", CHURN_CHILD, world], check=True,
                             timeout=120, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
        seen[world] = json.loads(out.splitlines()[-1])
    assert all(run["established"] >= 40 for run in seen.values())
    assert all(run["links"] >= 1 for run in seen.values())
    assert seen["stock"]["numpy"] is False
    assert seen["voice"]["numpy"] is True
