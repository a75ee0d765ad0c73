"""TKO_Template cache (paper §4.2.2).

"The TKO session architecture maintains a cache of customized
TKO_Templates that further optimize the instantiation process" — default
session configurations for commonly requested SCSs, cutting connection-
configuration delay.  Two kinds:

* **static** — guaranteed not to change: fully customized (inline
  expanded), cheapest to instantiate and fastest per PDU, but segue is
  refused and each distinct static template costs code space ("code
  bloat", the Synthesis-kernel trade-off);
* **reconfigurable** — may change during the session: slightly costlier
  and slower, but supports run-time segue.

A cache miss falls back to full dynamic synthesis, the most expensive
instantiation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.tko.config import SessionConfig
from repro.tko.pipeline import CODE_BYTES_PER_MECHANISM, SEND_SLOTS

#: instantiation cost in instructions, by path
SYNTH_COST_DYNAMIC = 20000.0      #: full synthesis from the repository
SYNTH_COST_RECONFIGURABLE = 4000.0
SYNTH_COST_STATIC = 1500.0


@dataclass
class Template:
    """One cached pre-assembled configuration.

    Beyond the signature, a warmed template carries the *synthesis
    recipe*: ``plan`` is a tuple of ``(slot, mechanism_class, ctor_kwargs)``
    from which fresh mechanism instances are built on every hit (sessions
    must never share live mechanism state — a segue on one session would
    otherwise mutate the cached table under every later session), and
    ``specs`` is the compiled per-stage cost table
    (:class:`~repro.mechanisms.base.StageSpec` per slot), reused verbatim
    because stage specs are immutable value objects.  ``pipelines`` holds
    everything else that is a function of (signature, host ``CpuCosts``):
    one finished :class:`~repro.tko.pipeline.CompiledPipeline` per cost
    table, shared by every hit on such a host, with the rendered
    closures' structural key and pre-bound factories riding on it — so a
    hit *stamps* a session: fresh mechanisms, shared artefacts.
    """

    signature: Tuple
    kind: str                      #: "static" | "reconfigurable"
    code_bytes: int = 0            #: customized code footprint (static only)
    hits: int = 0
    created_for: Optional[str] = None  #: e.g. the TSC name that seeded it
    plan: Optional[tuple] = None   #: ((slot, cls, kwargs), ...) build recipe
    specs: Optional[dict] = None   #: slot → StageSpec, compiled once
    #: structural key of the generated send closure serving this shape
    #: (diagnostic only — never part of the signature or the cost model)
    codegen: Optional[tuple] = None
    pipelines: dict = field(default_factory=dict)  #: CpuCosts → pipeline


class TemplateCache:
    """Signature-keyed cache of pre-assembled session configurations."""

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("cache needs at least one slot")
        self.max_entries = max_entries
        self._cache: Dict[Tuple, Template] = {}
        self.misses = 0

    # ------------------------------------------------------------------
    def lookup(self, cfg: SessionConfig) -> Optional[Template]:
        """Return the matching template, recording hit/miss."""
        t = self._cache.get(cfg.signature())
        if t is None:
            self.misses += 1
            return None
        t.hits += 1
        return t

    def peek(self, cfg: SessionConfig) -> Optional[Template]:
        """Return the matching template without touching hit/miss counts.

        The synthesizer uses this after :meth:`instantiation_cost` has
        already decided the charge, so the Figure 2 accounting is not
        double-counted.
        """
        return self._cache.get(cfg.signature())

    def store(self, cfg: SessionConfig, created_for: Optional[str] = None) -> Template:
        """Install (or refresh) the template for ``cfg``.

        The kind follows the config's binding: a static binding yields a
        static template (with its code-size cost); anything else a
        reconfigurable one.  Oldest-unused entries are evicted at capacity.
        """
        sig = cfg.signature()
        existing = self._cache.get(sig)
        if existing is not None:
            return existing
        if len(self._cache) >= self.max_entries:
            victim = min(self._cache.values(), key=lambda t: t.hits)
            del self._cache[victim.signature]
        kind = "static" if cfg.binding == "static" else "reconfigurable"
        code = CODE_BYTES_PER_MECHANISM * len(SEND_SLOTS) if kind == "static" else 0
        t = Template(signature=sig, kind=kind, code_bytes=code, created_for=created_for)
        self._cache[sig] = t
        return t

    # ------------------------------------------------------------------
    def instantiation_cost(self, cfg: SessionConfig) -> Tuple[float, bool]:
        """(instructions, cache_hit) for instantiating ``cfg`` now."""
        t = self._cache.get(cfg.signature())
        if t is None:
            return SYNTH_COST_DYNAMIC, False
        cost = SYNTH_COST_STATIC if t.kind == "static" else SYNTH_COST_RECONFIGURABLE
        return cost, True

    @property
    def total_code_bytes(self) -> int:
        """Aggregate customized-code footprint — the bloat metric."""
        return sum(t.code_bytes for t in self._cache.values())

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, cfg: SessionConfig) -> bool:
        return cfg.signature() in self._cache


def preload_tsc_templates(cache: TemplateCache) -> int:
    """Seed a cache with templates for every Table 1 application profile.

    §4.2.2: templates hold "default transport system session
    configurations for commonly requested SCSs" — and the commonly
    requested SCSs are exactly what the TSC defaults produce.  Each
    profile is derived against a reference LAN and a reference WAN so the
    first *real* session of any common shape already hits the cache.

    Returns the number of templates stored.
    """
    from repro.mantts.acd import ACD
    from repro.mantts.monitor import NetworkState
    from repro.mantts.transform import specify_scs
    from repro.mantts.tsc import APP_PROFILES

    reference_paths = (
        NetworkState("A", "B", True, 0.004, 0.004, 10e6, 1500, 1e-6, 0.0, 0.0, 3),
        NetworkState("A", "B", True, 0.15, 0.15, 1.5e6, 1500, 1e-7, 0.2, 0.0, 4),
    )
    stored = 0
    for profile in APP_PROFILES.values():
        acd = ACD(
            participants=("B", "C") if profile.multicast else ("B",),
            quantitative=profile.quantitative(),
            qualitative=profile.qualitative(),
        )
        for path in reference_paths:
            cfg = specify_scs(acd, path).config
            if cfg not in cache:
                cache.store(cfg, created_for=profile.app)
                stored += 1
    return stored
