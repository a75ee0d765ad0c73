"""TKO_Context: the per-session mechanism dispatch table (Figure 5).

"Each TKO_Context object contains a table of pointers to C++ abstract base
classes that define the session's behavior" — here, one slot per mechanism
category holding the bound :class:`~repro.mechanisms.base.Mechanism`.  The
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
    """Mechanism dispatch table with run-time rebinding (segue).

    The table *is* the object's layout: one slot per category.  A closed
    session's context is empty and still answers :meth:`describe`.
    """

    __slots__ = SLOTS + ("session", "segue_count", "_retired_as")

    def __init__(self, mechanisms: Dict[str, Mechanism]) -> None:
        missing = set(SLOTS) - set(mechanisms)
        if missing:
            raise ValueError(f"context missing mechanism slots: {sorted(missing)}")
        extra = set(mechanisms) - set(SLOTS)
        if extra:
            raise ValueError(f"unknown mechanism slots: {sorted(extra)}")
        for slot in SLOTS:
            setattr(self, slot, mechanisms[slot])
        self.session: "TKOSession | None" = None
        self.segue_count = 0
        #: mechanism names, kept by :meth:`teardown` for :meth:`describe`
        self._retired_as: "Tuple[str, ...] | None" = None

    # ------------------------------------------------------------------
    def bind(self, session: "TKOSession") -> None:
        """Attach every mechanism to its owning session."""
        self.session = session
        for _, mech in self.items():
            mech.bind(session)

    def get(self, slot: str) -> Mechanism:
        if slot not in SLOTS:
            raise KeyError(slot)
        return getattr(self, slot)

    def items(self) -> Iterator[Tuple[str, Mechanism]]:
        return ((slot, getattr(self, slot)) for slot in SLOTS)

    # ------------------------------------------------------------------
    def segue(self, slot: str, replacement: Mechanism) -> Mechanism:
        """Swap the mechanism in ``slot`` for ``replacement``.

        The replacement adopts the old mechanism's transferable state
        *before* the old one is unbound, so no protocol state (queues,
        timers' obligations, pacing debts) is lost — the paper's loss-free
        on-the-fly reconfiguration.

        Returns the displaced mechanism.
        """
        if slot not in SLOTS:
            raise KeyError(f"unknown mechanism slot {slot!r}")
        if replacement.category != slot:
            raise ValueError(
                f"{type(replacement).__name__} is a {replacement.category!r} "
                f"mechanism; cannot segue into slot {slot!r}"
            )
        old = getattr(self, slot)
        if self.session is not None:
            replacement.bind(self.session)
        replacement.adopt(old)
        old.unbind()
        setattr(self, slot, replacement)
        self.segue_count += 1
        return old

    def describe(self) -> str:
        """Mechanism names per slot, for logs and EXPERIMENTS.md rows."""
        names = self._retired_as or [m.name for _, m in self.items()]
        return " ".join(f"{slot}={name}" for slot, name in zip(SLOTS, names))

    def teardown(self) -> None:
        """Unbind every mechanism (cancels mechanism-held timers), keeping
        only their names."""
        self._retired_as = tuple(m.name for _, m in self.items())
        for slot, mech in self.items():
            mech.unbind()
            setattr(self, slot, None)
        self.session = None
