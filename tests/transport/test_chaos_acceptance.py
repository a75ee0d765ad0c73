"""Chaos acceptance for the real transport (ISSUE 8 acceptance gate).

The bar, verbatim from the ISSUE: a 10×2KiB checksummed transfer over an
``ImpairedFabric`` at 20% loss + reorder + duplication completes with
intact digests and zero pooled-PDU leaks, and the impairment trace is
byte-identical across two runs with the same seed.

Trace identity is asserted across two *fresh subprocesses*: the
process-global message-id counter rides the wire, so in-process reruns
shift encoded datagram lengths even though every drop/dup/delay decision
still replays exactly.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from repro.transport.chaos import run_impaired_transfer

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

_CHILD = """\
import json, sys
from repro.transport.chaos import run_impaired_transfer
r = run_impaired_transfer(seed=int(sys.argv[1]))
print(json.dumps({"digest": r["trace_digest"], "delivered": r["delivered"],
                  "digest_ok": r["digest_ok"]}))
"""


def _child_run(seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(seed)],
        capture_output=True, text=True, timeout=120, env=env, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_lossy_transfer_completes_with_intact_digests_and_balanced_pool():
    res = run_impaired_transfer()  # 20% loss, 10% dup, 10% reorder, both ways
    assert res["connected"], f"never connected: {res['failed']!r}"
    assert res["sent"] == res["delivered"] == 10
    assert res["digest_ok"], "payload digests diverged across the lossy path"
    d_acq, d_rec = res["pool_delta"]
    assert d_acq == d_rec, f"pooled-PDU leak: {d_acq} acquired, {d_rec} recycled"
    # duplicates, rejected retransmissions and delivered fragments all
    # surrendered their receive-side slab claims
    assert res["slab_leases_live"] == 0
    # nothing leaked, and nothing still busy: a lost FIN or FIN-ACK is
    # retried until the closer's FIN exchange ends, one way or the other
    assert res["quiescence"] == []
    assert res["frames_sent"] > 20  # retransmissions genuinely happened
    # the trace recorded real hostility, not a clean path
    assert any(" drop" in line for line in res["trace"])


def test_same_seed_trace_is_byte_identical_across_runs():
    first = _child_run(1)
    second = _child_run(1)
    assert first["delivered"] == second["delivered"] == 10
    assert first["digest_ok"] and second["digest_ok"]
    assert first["digest"] == second["digest"]


def test_different_seed_trace_diverges():
    assert _child_run(1)["digest"] != _child_run(3)["digest"]


def test_harness_reports_a_clean_path_cleanly():
    from repro.transport.impair import ImpairmentSpec

    res = run_impaired_transfer(spec=ImpairmentSpec(), n_messages=3,
                                msg_size=512, seed=5)
    assert res["connected"] and res["digest_ok"]
    assert res["delivered"] == 3
    assert res["pool_delta"][0] == res["pool_delta"][1]
    assert res["slab_leases_live"] == 0
    assert res["quiescence"] == []
