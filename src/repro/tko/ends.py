"""Why a connection ended: the closed set of end reasons.

Each layer ends a connection through one path that carries one of these
(``TKOSession._end`` → ``on_ended``, ``ConnectionLifecycle.ended``,
``ConnectionManager.connection_ended``), as a socket API names every end
(``ETIMEDOUT``, ``ECONNRESET``).  A raiser may follow the constant with
``": "`` and a detail, such as the member that refused.
"""

ADMISSION_REFUSED = "admission refused"
NEGOTIATION_TIMEOUT = "negotiation timed out"
HANDSHAKE_TIMEOUT = "handshake timeout"
FIN_TIMEOUT = "fin timeout"
PEER_DEAD = "peer dead"
ADAPTATION_TEARDOWN = "adaptation teardown"
RETRANSMISSION_LIMIT = "retransmission limit exceeded"
GRACEFUL_CLOSE = "closed"


def kind(reason: str) -> str:
    """The constant ``reason`` starts with (a caller's own string as is)."""
    return reason.partition(": ")[0]


def failed_open(reason: str, established: bool) -> bool:
    """An end before establishment that nobody asked for: a failed open."""
    return not established and kind(reason) != GRACEFUL_CLOSE
