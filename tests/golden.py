"""Frozen identity values: what a seeded run must reproduce, bit for bit.

Captured on commit ``6c17937``, the last tree that still carried
``ConnectionManager(mode="legacy")``: there the churn values were equal
under both manager modes and all three TKO executors, the audit values
under all three executors.  The second manager is gone; these values
are what the implementations agreed on.

A change that moves one of them has changed simulated behaviour.  If
that is intended, re-capture with the expression named beside the value
and say so in CHANGES.md; never edit a digest to make a test pass.
"""

import hashlib

#: ``identity_fields(run_churn(40, seed=s))`` per seed
CHURN_40 = {
    1: {
        "n_connections": 40, "established": 54, "failed": 0, "closed": 54,
        "reopened": 14, "delivered": 120, "peak_concurrent": 40,
        "delivery_digest":
            "2abe3fdc550b75f078cf0e04bd07db3a8b5e05c474cbbb5ea7ea6d94314104a1",
        "final_time": 20.0,
    },
    2: {
        "n_connections": 40, "established": 54, "failed": 0, "closed": 54,
        "reopened": 14, "delivered": 121, "peak_concurrent": 40,
        "delivery_digest":
            "92556c8c645eefffc6725a380170b1f7dc46fd6c6f2db30532a50f717fc45c44",
        "final_time": 20.0,
    },
    3: {
        "n_connections": 40, "established": 54, "failed": 0, "closed": 54,
        "reopened": 14, "delivered": 121, "peak_concurrent": 40,
        "delivery_digest":
            "4e99f776aa3131e93181f12b182bb7c97998f12abc488d463f5ab8fd78e64b94",
        "final_time": 20.0,
    },
}

#: ``identity_fields(run_churn(10, seed=7))``
CHURN_10_SEED_7 = {
    "n_connections": 10, "established": 14, "failed": 0, "closed": 14,
    "reopened": 4, "delivered": 31, "peak_concurrent": 10,
    "delivery_digest":
        "e07acc1b4c352909f64593ebaa1fff9bc1029ab9d489e44b668e48453a24ee59",
    "final_time": 20.0,
}

#: ``grouped_identity_fields(run_grouped_churn(48, n_groups=4, seed=11))``
#: — the serial world ``tests/shard/test_sharded_churn.py`` shards
GROUPED_48_SEED_11 = {
    "n_connections": 48, "established": 64, "failed": 0, "closed": 64,
    "reopened": 16, "delivered": 144, "peak_concurrent": 48,
    "delivery_digest":
        "9d752c625290d659d97b7ac41a616aeb67bacd686efbc84aefa441049ee10252",
    "final_time": 14.02,
}


def verdict_digest(trace) -> str:
    """sha256 over an ``audit_trace`` tuple's repr (floats repr exactly)."""
    return hashlib.sha256(repr(trace).encode()).hexdigest()


#: ``tests/integration/test_audit_determinism.py::run_chaos_world(kind,
#: seed)`` per seed: ``(verdict_digest(audit trace), world digest)``
AUDIT_CHAOS_WORLD = {
    1: ("0bbcb539259547a6f4c7cd040cc5cb93a9d605afb6178dd47a76074ad2d2313b",
        (30, 21090, 12.0, 122, 90)),
    2: ("5be3df4720b4cf25a3a71f04c9e6b72e07555b3e531a31b3fe0eecd7dc5be4f4",
        (30, 21090, 12.0, 32, 0)),
    3: ("31cd18899dfe793870c3cf8085626e31d24687f13c5844adc7a261578dbcec47",
        (30, 21090, 12.0, 32, 0)),
}

#: the seed-4 chaos world of ``test_auditor_does_not_perturb_the_world``,
#: auditor attached or not
AUDIT_OBSERVER_WORLD = (20, 10060, 10.0, 37, 15, 406755.0, 500405.0)
