"""TKO_Synthesizer: SCS → executable session configuration (Stage III).

"The synthesizer receives the session configuration specification from the
MANTTS-TSI and transforms it into an efficient, lightweight TKO_Context
session instantiation" (§4.2.2).  It:

* composes concrete mechanisms from the repository
  (:mod:`repro.mechanisms.registry`) per the config;
* consults the template cache so commonly requested configurations skip
  the full synthesis cost;
* charges the instantiation work to the host CPU (this is the measurable
  part of the configuration delay that Figure 2's bench reports);
* coordinates run-time reconfiguration: given a revised config it
  computes the *difference* against the session's current mechanisms and
  segues only the slots that changed — preferring cheap in-place
  parameter adjustment (e.g. retuning a rate-control gap or a playout
  point) over a full mechanism swap;
* exposes an instrumentation hook where UNITES attaches its collectors.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.host.nic import Host
from repro.mechanisms.registry import build_mechanism, mechanism_plan
from repro.tko.config import SessionConfig
from repro.tko.context import SLOTS, TKOContext
from repro.tko.session import TKOSession
from repro.tko.templates import Template, TemplateCache


class TKOSynthesizer:
    """Builds and rebinds session configurations."""

    def __init__(self, templates: Optional[TemplateCache] = None) -> None:
        self.templates = templates if templates is not None else TemplateCache()
        #: UNITES instrumentation callbacks, invoked per new session
        self.instruments: List[Callable[[TKOSession], None]] = []
        self.sessions_synthesized = 0

    # ------------------------------------------------------------------
    def synthesize_context(
        self,
        cfg: SessionConfig,
        group: Optional[str] = None,
        members: Optional[list] = None,
    ) -> TKOContext:
        """Compose a mechanism table for ``cfg`` from the repository."""
        mechanisms = {
            slot: build_mechanism(slot, cfg, group=group, members=members)
            for slot in SLOTS
        }
        return TKOContext(mechanisms)

    def instantiate(
        self,
        host: Host,
        cfg: SessionConfig,
        conn_id: int,
        local_port: int,
        remote_host: str,
        remote_port: int,
        group: Optional[str] = None,
        members: Optional[list] = None,
        **callbacks,
    ) -> TKOSession:
        """Create a fully wired session, charging instantiation cost.

        A template-cache hit instantiates at a fraction of the dynamic
        synthesis cost; every instantiation also (re)stores its template so
        repeated requests get progressively cheaper — the warm-cache effect
        the Figure 2 bench measures.
        """
        cost, hit = self.templates.instantiation_cost(cfg)
        host.cpu.charge(cost)
        if not hit:
            self.templates.store(cfg)
        # group sessions carry per-connection member state; never cache them
        cacheable = group is None and cfg.delivery != "multicast"
        template = self.templates.peek(cfg) if cacheable else None
        shared = None
        if template is not None and template.plan is not None:
            # a hit stamps: *fresh* mechanism instances from the cached
            # recipe — sharing live mechanisms across sessions would let a
            # later segue mutate the cached table under everyone — around
            # the immutable artefacts compiled once for this cost table
            mechanisms = {slot: cls(**kwargs) for slot, cls, kwargs in template.plan}
            context = TKOContext(mechanisms)
            shared = template.pipelines.get(host.cpu.costs)
        else:
            context = self.synthesize_context(cfg, group=group, members=members)
        session = TKOSession(
            host,
            cfg,
            context,
            conn_id,
            local_port,
            remote_host,
            remote_port,
            pipeline_specs=template.specs if template is not None else None,
            shared_pipeline=shared,
            **callbacks,
        )
        self.sessions_synthesized += 1
        if template is not None and shared is None:
            self._warm_template(template, cfg, session)
        for instrument in self.instruments:
            instrument(session)
        return session

    @staticmethod
    def _warm_template(template: Template, cfg: SessionConfig, session: TKOSession) -> None:
        """Attach the build recipe and the compiled artefacts after the
        first use on each cost table."""
        if template.plan is None:
            template.plan = tuple(
                (slot, *mechanism_plan(slot, cfg)) for slot in SLOTS
            )
        pipe = session.executor.pipeline
        if pipe is not None:  # the test tree's oracle compiles nothing
            if template.specs is None:
                template.specs = dict(pipe.specs)
            template.pipelines.setdefault(session.host.cpu.costs, pipe)
        if template.codegen is None:
            # which generated-closure shape serves this configuration —
            # a pure diagnostic linking the template cache to the codegen
            # factory cache
            template.codegen = session.executor.codegen_key

    # ------------------------------------------------------------------
    # run-time reconfiguration
    # ------------------------------------------------------------------
    #: config fields that identify each slot's mechanism instance
    _SLOT_IDENTITY = {
        "connection": lambda c: (c.connection,),
        "transmission": lambda c: (c.transmission,),
        "detection": lambda c: (c.detection, c.checksum_placement),
        "ack": lambda c: (c.ack,),
        "recovery": lambda c: (c.recovery, c.fec_k, c.fec_r),
        "sequencing": lambda c: (c.sequencing,),
        "delivery": lambda c: (c.delivery,),
        "jitter": lambda c: (c.jitter,),
        "buffer": lambda c: (c.buffer,),
    }

    def reconfigure(self, session: TKOSession, new_cfg: SessionConfig) -> List[str]:
        """Morph a live session toward ``new_cfg``.

        Returns the list of slots that were segued.  Parameter-only changes
        (pacing rate, playout depth, window size) are applied in place —
        the paper's "adjust the SCS" action — while mechanism changes go
        through segue with state handoff.
        """
        old_cfg = session.cfg
        segued: List[str] = []
        for slot in SLOTS:
            ident = self._SLOT_IDENTITY[slot]
            if ident(old_cfg) == ident(new_cfg):
                continue
            # cheap in-place adjustments that avoid a swap
            if slot == "transmission" and old_cfg.transmission == new_cfg.transmission:
                continue  # rate retune handled below via update_config hook
            replacement = build_mechanism(
                slot,
                new_cfg,
                group=getattr(session.context.delivery, "group", None),
                members=getattr(session.context.delivery, "destinations", lambda: [])(),
            )
            session.segue(slot, replacement)
            segued.append(slot)
        # parameter retunes on surviving mechanisms
        session.update_config(new_cfg)
        tx = session.context.transmission
        if new_cfg.rate_pps is not None and hasattr(tx, "set_rate"):
            tx.set_rate(new_cfg.rate_pps)
        jit = session.context.jitter
        if new_cfg.jitter == "playout" and hasattr(jit, "set_delay"):
            jit.set_delay(new_cfg.playout_delay)
        session.pump()
        return segued
