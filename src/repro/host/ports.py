"""Transport-layer port table and demultiplexing.

One of the "medium-granularity" services the paper's TKO protocol
architecture insulates sessions from (§4.2.1): mapping an arriving PDU to
the session that owns it.  Lookups match the most specific binding first:

1. a *connected* binding ``(local_port, remote_host, remote_port)``;
2. a *listening* binding ``(local_port, *, *)``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

ConnKey = Tuple[int, str, int]


class PortExhaustedError(RuntimeError):
    """Every port in the ephemeral range is currently bound."""


class PortTable:
    """Per-host registry mapping ports/connections to session objects."""

    #: first port handed out by :meth:`ephemeral_port`
    EPHEMERAL_BASE = 32768
    #: one past the last ephemeral port (the Linux default upper bound)
    EPHEMERAL_LIMIT = 61000

    def __init__(
        self,
        ephemeral_base: Optional[int] = None,
        ephemeral_limit: Optional[int] = None,
    ) -> None:
        self._listeners: Dict[int, Any] = {}
        self._connections: Dict[ConnKey, Any] = {}
        #: local-port -> number of live connection bindings using it
        self._local_refs: Dict[int, int] = {}
        self.ephemeral_base = (
            ephemeral_base if ephemeral_base is not None else self.EPHEMERAL_BASE
        )
        self.ephemeral_limit = (
            ephemeral_limit if ephemeral_limit is not None else self.EPHEMERAL_LIMIT
        )
        if self.ephemeral_limit <= self.ephemeral_base:
            raise ValueError("ephemeral range is empty")
        self._next_ephemeral = self.ephemeral_base

    # ------------------------------------------------------------------
    def listen(self, port: int, owner: Any) -> None:
        """Bind a wildcard listener on ``port``."""
        if port in self._listeners:
            raise ValueError(f"port {port} already has a listener")
        self._listeners[port] = owner

    def connect(self, local_port: int, remote_host: str, remote_port: int, owner: Any) -> None:
        """Bind a fully-qualified connection tuple."""
        key = (local_port, remote_host, remote_port)
        if key in self._connections:
            raise ValueError(f"connection {key} already bound")
        self._connections[key] = owner
        self._local_refs[local_port] = self._local_refs.get(local_port, 0) + 1

    def release(self, local_port: int, remote_host: Optional[str] = None,
                remote_port: Optional[int] = None) -> None:
        """Remove a binding; connection tuples and listeners independently.

        Releasing the last binding on a local port returns the port to the
        ephemeral pool (teardown frees ports — §4.1.3's "releases
        resources" includes communication ports).
        """
        if remote_host is None:
            self._listeners.pop(local_port, None)
        else:
            key = (local_port, remote_host, int(remote_port or 0))
            if self._connections.pop(key, None) is not None:
                refs = self._local_refs.get(local_port, 0) - 1
                if refs > 0:
                    self._local_refs[local_port] = refs
                else:
                    self._local_refs.pop(local_port, None)

    def owners(self) -> Iterator[Any]:
        """Every bound owner: connection tuples, then wildcard listeners."""
        yield from self._connections.values()
        yield from self._listeners.values()

    # ------------------------------------------------------------------
    def demux(self, local_port: int, remote_host: str, remote_port: int) -> Optional[Any]:
        """Most-specific-match lookup for an arriving PDU."""
        owner = self._connections.get((local_port, remote_host, remote_port))
        if owner is not None:
            return owner
        return self._listeners.get(local_port)

    def ephemeral_port(self) -> int:
        """Hand out a free client-side port number.

        Walks the ephemeral range from the last handout, wrapping around
        and skipping ports still bound (as a listener or by any live
        connection tuple); raises :class:`PortExhaustedError` when every
        port in the range is in use.
        """
        span = self.ephemeral_limit - self.ephemeral_base
        for _ in range(span):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= self.ephemeral_limit:
                self._next_ephemeral = self.ephemeral_base
            if port not in self._listeners and port not in self._local_refs:
                return port
        raise PortExhaustedError(
            f"all {span} ephemeral ports "
            f"[{self.ephemeral_base}, {self.ephemeral_limit}) are bound"
        )

    def port_in_use(self, port: int) -> bool:
        """Whether any binding (listener or connection) holds ``port``."""
        return port in self._listeners or port in self._local_refs

    def __len__(self) -> int:
        return len(self._listeners) + len(self._connections)
