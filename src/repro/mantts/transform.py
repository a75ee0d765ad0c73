"""Stage II: TSC × ACD × network state → Session Configuration Specification.

This module is the "requirement-driven transformation process" of Figure 2.
Each mechanism slot is chosen by an explicit, documented rule reconciling
the TSC's policy leanings with the measured network (avoiding both the
*overweight* and *underweight* misconfigurations of §2.2(B)):

* reliability — full reliability wants retransmission; pick selective
  repeat when the path is lossy/congested (retransmitting everything would
  add to the congestion) and go-back-N otherwise (cheaper receiver).
  Loss-tolerant isochronous traffic gets FEC when the RTT is large
  (retransmission would blow the latency budget) or nothing on clean LANs;
* detection — no checksum only when the application tolerates errors *and*
  the medium is near error-free; trailer placement whenever the compact
  header format is in use;
* transmission control — isochronous sources are rate-paced at their
  (negotiated) media rate; elastic traffic gets a sliding window sized to
  the bandwidth-delay product; congested WANs add rate control on top;
* connection management — implicit for transactional/short/loss-tolerant
  sessions (no setup RTT), explicit otherwise, 3-way only when full
  reliability demands agreement;
* jitter — a playout buffer sized from the jitter bound and current RTT.
"""

from __future__ import annotations

from typing import Optional

from repro.mantts.acd import ACD
from repro.mantts.monitor import NetworkState
from repro.mantts.scs import SCS
from repro.mantts.tsc import TSC, select_tsc
from repro.tko.config import SessionConfig

#: RTT beyond which retransmission-based recovery is considered harmful
#: for latency-bounded traffic (the satellite threshold of §3(C))
FEC_RTT_THRESHOLD = 0.2
#: path loss above which selective repeat is preferred over go-back-N
SR_LOSS_THRESHOLD = 0.01
#: congestion level above which rate control supplements the window
RATE_CONGESTION_THRESHOLD = 0.3
#: session durations below this never pay an explicit negotiation RTT
SHORT_SESSION = 5.0


def specify_scs(
    acd: ACD,
    network: NetworkState,
    tsc: Optional[TSC] = None,
    binding: str = "dynamic",
) -> SCS:
    """Derive the SCS for ``acd`` over the path described by ``network``."""
    if tsc is None:
        tsc = select_tsc(acd)
    quant, qual = acd.quantitative, acd.qualitative
    scs = SCS(config=SessionConfig(), tsc=tsc, network=network)
    iso = tsc in (TSC.INTERACTIVE_ISOCHRONOUS, TSC.DISTRIBUTIONAL_ISOCHRONOUS)
    reliable = quant.loss_tolerance == 0.0
    rtt = network.rtt if network.reachable else 0.1

    # --- connection management -----------------------------------------
    # Low-rate isochronous sessions (voice) stay implicit: no setup RTT.
    # High-bandwidth media negotiates explicitly — "the additional time
    # spent negotiating QoS should improve the overall performance for
    # longer-duration, high-bandwidth connections" (§4.1.1) — it needs
    # resources reserved along the path.
    light_iso = iso and quant.peak_bps < 1e6
    if qual.connection_preference == "implicit" or (
        qual.connection_preference is None
        and (qual.transactional or quant.duration < SHORT_SESSION or light_iso)
    ):
        connection = "implicit"
        scs.note("implicit connection: setup RTT matters more than negotiation")
    elif reliable and quant.duration >= SHORT_SESSION:
        connection = "explicit-3way"
        scs.note("explicit 3-way: long reliable session justifies full agreement")
    else:
        connection = "explicit-2way"
        scs.note("explicit 2-way: agreement at one RTT of setup cost")

    # --- delivery --------------------------------------------------------
    delivery = "multicast" if acd.is_multicast else "unicast"
    if delivery == "multicast":
        connection = "implicit"  # per-member handshakes are MANTTS' job
        scs.note("multicast delivery: implicit per-session establishment")

    # --- error detection --------------------------------------------------
    if quant.loss_tolerance >= 0.05 and network.ber < 1e-8 and not reliable:
        detection = "none"
        scs.note("no checksum: error-tolerant app on near-error-free medium")
    elif reliable and not iso:
        detection = "crc32" if qual.real_time else "checksum"
        scs.note(f"{detection}: full reliability requested")
    else:
        detection = "checksum"
        scs.note("checksum: damaged PDUs dropped, recovered by reliability scheme")

    # --- recovery & acknowledgment ----------------------------------------
    lossy = network.loss_rate > SR_LOSS_THRESHOLD or network.congestion > 0.5
    if reliable:
        if lossy:
            recovery, ack = "sr", "selective"
            scs.note("selective repeat: lossy/congested path, resend only gaps")
        else:
            recovery, ack = "gbn", "cumulative"
            scs.note("go-back-N: clean path, minimal receiver state")
    elif iso and (rtt > FEC_RTT_THRESHOLD or network.loss_rate > quant.loss_tolerance):
        recovery, ack = ("fec-rs", "none") if network.loss_rate > 0.05 else ("fec-xor", "none")
        scs.note(f"{recovery}: repair without retransmission latency (rtt={rtt:.3f}s)")
    elif quant.loss_tolerance >= 0.05:
        recovery, ack = "none", "none"
        scs.note("no recovery: losses within the application's tolerance")
    else:
        recovery, ack = "gbn", "cumulative"
        scs.note("go-back-N: modest loss tolerance still wants repair")

    # --- transmission control ----------------------------------------------
    seg = _segment_size(network, quant, recovery)
    rate_pps: Optional[float] = None
    bdp = max(1, int(network.bottleneck_bps * rtt / (8 * seg))) if network.reachable else 16
    if iso:
        rate_pps = max(1.0, quant.peak_bps / (8 * seg))
        if reliable or recovery in ("gbn", "sr"):
            transmission = "window-rate"
            scs.note("window+rate: paced media with window-bounded recovery")
        else:
            transmission = "rate"
            scs.note(f"rate control at {rate_pps:.0f} PDU/s: isochronous pacing")
    elif qual.transactional:
        transmission = "sliding-window"
        scs.note("small window: request-response traffic")
    else:
        transmission = "sliding-window"
        scs.note(f"sliding window sized to bandwidth-delay product ({bdp} PDUs)")
        if network.congestion > RATE_CONGESTION_THRESHOLD:
            transmission = "window-rate"
            rate_pps = max(1.0, network.bottleneck_bps * (1.0 - network.congestion) / (8 * seg))
            scs.note("added rate control: path congestion above threshold")
    if ack == "none" and transmission in ("sliding-window", "window-rate"):
        # window flow control cannot operate unacknowledged
        if transmission == "window-rate":
            transmission = "rate"
            rate_pps = rate_pps or max(1.0, quant.peak_bps / (8 * seg))
        else:
            transmission, rate_pps = "rate", max(1.0, quant.peak_bps / (8 * seg))
        scs.note("window dropped: no ACK stream to open it")

    # floor of 8 absorbs host-side processing delay not visible in the
    # propagation-based BDP estimate; transactional traffic stays small
    window = min(256, max(8, bdp)) if not qual.transactional else 4

    # --- sequencing ---------------------------------------------------------
    if not qual.ordered:
        sequencing = "none"
        scs.note("unsequenced: application is order-insensitive")
    elif qual.duplicate_sensitive:
        sequencing = "ordered-dedup"
    else:
        sequencing = "ordered"

    # --- jitter --------------------------------------------------------------
    if qual.isochronous and quant.max_jitter is not None:
        jitter = "playout"
        playout = min(0.5, max(2 * quant.max_jitter, rtt * 0.5))
        scs.note(f"playout buffer {playout * 1000:.0f} ms: jitter bound {quant.max_jitter}")
    else:
        jitter = "none"
        playout = 0.0

    # --- buffers & headers ----------------------------------------------------
    buffer = "fixed" if iso else "variable"
    cfg = SessionConfig(
        connection=connection,
        transmission=transmission,
        detection=detection,
        checksum_placement="trailer",
        ack=ack,
        recovery=recovery,
        sequencing=sequencing,
        delivery=delivery,
        jitter=jitter,
        buffer=buffer,
        window=window,
        rate_pps=rate_pps,
        segment_size=seg,
        fec_k=4,
        fec_r=2 if recovery == "fec-rs" else 1,
        playout_delay=playout if jitter == "playout" else 0.08,
        rto_initial=max(0.2, 3 * rtt) if network.reachable else 0.5,
        rto_min=max(0.1, rtt),
        priority=qual.priority,
        compact_headers=True,
        binding=binding,
    )
    scs.config = cfg
    return scs


def _segment_size(network: NetworkState, quant, recovery: str = "none") -> int:
    """User bytes per PDU: fill the path MTU, but never exceed the app's
    natural message size by much (fragmenting tiny messages is wasteful).

    FEC configurations reserve headroom for the PARITY PDU's per-shard
    group metadata so repair units also fit the MTU."""
    from repro.mechanisms.fec import META_BYTES_PER_SHARD
    from repro.tko.pipeline import NETWORK_HEADER_BYTES

    mtu = network.mtu if network.reachable and network.mtu else 1500
    headroom = 32
    if recovery.startswith("fec"):
        headroom += META_BYTES_PER_SHARD * 4  # default group size
    path_max = max(64, mtu - NETWORK_HEADER_BYTES - headroom)
    if quant.message_size <= path_max:
        return max(64, quant.message_size)
    return path_max
