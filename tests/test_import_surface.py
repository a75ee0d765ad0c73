"""What a cold process loads to run a simulated world — a count, not a timing.

``import repro.core.system`` is what every bench child, pytest run and
shard or sweep worker pays before its first event.  The child process below
records what the interpreter loaded at start-up, then imports it, builds an
``AdaptiveSystem`` (which imports the sim backend, and with it the
``repro.transport`` package) and reports ``sys.modules``: the routing
library, the UDP stack and the HTTP stack must not be among the modules
that the import and ``AdaptiveSystem()`` added on top of the start-up set,
and the total stays under a ceiling (649 while ``networkx``, ``asyncio`` and
``http.server`` were imported eagerly).  Touching the two PEP 562 attributes
then loads exactly the objects their modules define.

The deny-list is relative to start-up because ``site`` may import modules
before the child's first line: a ``.pth`` hook in site-packages that runs
``import certifi`` pulls in ``importlib.resources``, then ``pathlib``, then
``urllib.parse``, and none of that is the program's doing.  No ``repro``
module may be in the start-up set, so the baseline cannot hide the
program's own imports; a deny-listed module that start-up already loaded
cannot be charged to the program on such an interpreter.  The ceiling
counts every module, start-up's included.  On py3.11 the counts after the
import / after ``AdaptiveSystem()`` read 274 / 286 with no start-up hook
and 305 / 316 on an interpreter whose hook imports ``certifi``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DENIED = ("networkx", "asyncio", "http", "email", "ssl", "socket", "selectors",
          "concurrent.futures", "logging", "unittest", "urllib")
CEILING = 330

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
