"""TKO_Context: the per-session mechanism dispatch table (Figure 5).

"Each TKO_Context object contains a table of pointers to C++ abstract base
classes that define the session's behavior" — here, a dict from slot name
to the bound :class:`~repro.mechanisms.base.Mechanism` instance.  The
*segue* operation replaces one entry at run time with state handoff,
"permitting certain class object bindings to change dynamically" — the
contrast the paper draws with BSD's link-time-fixed protocol switch
tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Tuple

from repro.mechanisms.base import Mechanism

if TYPE_CHECKING:  # pragma: no cover
    from repro.tko.session import TKOSession

#: the mechanism slots of Figure 5, in pipeline order
SLOTS = (
    "connection",
    "transmission",
    "detection",
    "ack",
    "recovery",
    "sequencing",
    "delivery",
    "jitter",
    "buffer",
)


class TKOContext:
    """Mechanism dispatch table with run-time rebinding (segue)."""

    def __init__(self, mechanisms: Dict[str, Mechanism]) -> None:
        missing = set(SLOTS) - set(mechanisms)
        if missing:
            raise ValueError(f"context missing mechanism slots: {sorted(missing)}")
        extra = set(mechanisms) - set(SLOTS)
        if extra:
            raise ValueError(f"unknown mechanism slots: {sorted(extra)}")
        self._table: Dict[str, Mechanism] = dict(mechanisms)
        # ctx.recovery, ctx.ack, ...: every slot is also a plain attribute
        # (kept in step by segue), so reading one never misses into a hook
        self.__dict__.update(mechanisms)
        self.session: "TKOSession | None" = None
        self.segue_count = 0

    # ------------------------------------------------------------------
    def bind(self, session: "TKOSession") -> None:
        """Attach every mechanism to its owning session."""
        self.session = session
        for mech in self._table.values():
            mech.bind(session)

    def get(self, slot: str) -> Mechanism:
        return self._table[slot]

    def items(self) -> Iterator[Tuple[str, Mechanism]]:
        return iter(self._table.items())

    # ------------------------------------------------------------------
    def segue(self, slot: str, replacement: Mechanism) -> Mechanism:
        """Swap the mechanism in ``slot`` for ``replacement``.

        The replacement adopts the old mechanism's transferable state
        *before* the old one is unbound, so no protocol state (queues,
        timers' obligations, pacing debts) is lost — the paper's loss-free
        on-the-fly reconfiguration.

        Returns the displaced mechanism.
        """
        if slot not in self._table:
            raise KeyError(f"unknown mechanism slot {slot!r}")
        if replacement.category != slot:
            raise ValueError(
                f"{type(replacement).__name__} is a {replacement.category!r} "
                f"mechanism; cannot segue into slot {slot!r}"
            )
        old = self._table[slot]
        if self.session is not None:
            replacement.bind(self.session)
        replacement.adopt(old)
        old.unbind()
        self._table[slot] = replacement
        setattr(self, slot, replacement)
        self.segue_count += 1
        return old

    def describe(self) -> str:
        """Mechanism names per slot, for logs and EXPERIMENTS.md rows."""
        return " ".join(f"{slot}={m.name}" for slot, m in self._table.items())

    def teardown(self) -> None:
        """Unbind every mechanism (cancels mechanism-held timers)."""
        for mech in self._table.values():
            mech.unbind()
