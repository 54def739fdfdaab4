"""Machine/OS cost profiles calibrated from the paper.

The paper's whole performance analysis reduces to sums of primitive
costs (its Tables 1 and 2) plus queueing effects.  This module is the
single source of truth for those costs; every substrate (IPC, network,
log, CPU scheduler) reads its timing parameters from a
:class:`CostModel`.

All times are **milliseconds** of virtual time, matching the units the
paper reports.

Two stock profiles:

- :func:`rt_pc_profile` — IBM RT PC model 125 + Mach 2.0 + 4 Mb/s token
  ring; used for the latency experiments (paper §4.1-4.3, Figures 2-3,
  Tables 1-3).
- :func:`vax_mp_profile` — 4-way VAX 8200 (1-MIP CPUs, single master run
  queue); used for the throughput experiments (Figures 4-5).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass
class CostModel:
    """Primitive latencies and queueing parameters.

    Field names follow the paper's vocabulary.  ``*_ipc`` fields are
    one-way delivery latencies; an RPC is two deliveries plus server
    service time.
    """

    # ------------------------------------------------------- Table 1 ---
    procedure_call_us: float = 12.0          # 32-byte arg procedure call
    bcopy_base_us: float = 8.4               # bcopy() fixed cost
    bcopy_per_kb_us: float = 180.0           # bcopy() per-KB cost
    kernel_call_us: float = 149.0            # getpid(), cheapest syscall
    kernel_copy_base_us: float = 35.0        # copy in/out of kernel, + copy
    context_switch_us: float = 137.0         # swtch()
    raw_disk_track_write: float = 26.8       # raw disk write, 1 track (ms)

    # ------------------------------------------------------- Table 2 ---
    local_ipc: float = 1.5                   # local in-line IPC
    local_outofline_ipc: float = 5.5         # local out-of-line IPC
    local_oneway_message: float = 1.0        # local one-way inline message
    remote_rpc: float = 29.0                 # full Camelot remote RPC
    log_force: float = 15.0                  # synchronous log force
    datagram: float = 10.0                   # inter-TranMan datagram
    get_lock: float = 0.5
    drop_lock: float = 0.5
    data_access_read: float = 0.0            # "negligible"
    data_access_write: float = 0.0           # "negligible"

    # ------------------------------------------- §4.1 RPC dissection ---
    netmsg_rpc: float = 19.1                 # NetMsgServer-to-NetMsgServer RPC
    comman_cpu_per_call: float = 3.2         # ComMan CPU per call per site

    # ----------------------------------------------- network queueing ---
    datagram_send_cycle: float = 1.7         # serial cost per datagram send
    # Per-send scheduling jitter at the sender (the paper: "much of the
    # variance is created by the coordinator's repeated sends ... may be
    # due to operating system scheduling policies").  Paid once per
    # unicast, once per *multicast group* — which is why multicast cuts
    # variance without changing the mean much.
    datagram_send_jitter: float = 1.2
    datagram_jitter_base: float = 0.3        # mean receive jitter, idle net
    datagram_jitter_per_load: float = 0.6    # extra mean jitter per in-flight
    multicast_send_cycle: float = 1.7        # one cycle regardless of fan-out

    # ------------------------------------------------------- logging ---
    log_batch_timer: float = 30.0            # group-commit accumulation window
    log_batch_limit: int = 32                # max commits folded into one force

    # --------------------------------------------------------- CPU -----
    num_cpus: int = 1
    cpu_speed_factor: float = 1.0            # scales per-message CPU costs
    tranman_service_cpu: float = 0.8         # TranMan CPU per request handled
    server_service_cpu: float = 0.5          # data-server CPU per operation
    logger_service_cpu: float = 0.3          # DiskMan CPU per log request

    # ------------------------------------------------ datagram layer ---
    protocol_timeout: float = 1500.0         # subordinate decision timeout (NB commit)
    # A transaction with no protocol machine and no activity for this
    # long is an orphan (its coordinator died before commitment began):
    # the TranMan aborts it locally — always safe before a YES vote.
    orphan_timeout: float = 30_000.0
    # Timeout-based deadlock resolution in the data servers: an
    # operation that cannot get its lock within this bound fails, and
    # the application aborts the transaction (the victim).
    lock_wait_timeout: float = 5_000.0
    # Periodic fuzzy checkpoints (log truncation); 0 disables them —
    # the latency/throughput experiments run without checkpoint noise.
    checkpoint_interval: float = 0.0

    def scaled_cpu(self, cost: float) -> float:
        """Apply the profile's CPU speed factor to a CPU cost."""
        return cost * self.cpu_speed_factor

    def bcopy(self, kilobytes: float) -> float:
        """bcopy() time in **ms** for ``kilobytes`` of data (Table 1 row)."""
        return (self.bcopy_base_us + self.bcopy_per_kb_us * kilobytes) / 1000.0

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """A copy with selected fields replaced (experiment sweeps)."""
        return replace(self, **kwargs)


def rt_pc_profile() -> CostModel:
    """IBM RT PC 125 / Mach 2.0 / token ring — the latency testbed."""
    return CostModel()


def wan_profile() -> CostModel:
    """Wide-area internetwork: the same hosts as the RT-PC profile, but
    inter-site messages cross a routed internet path instead of one
    token ring.  Used by the protocol-overhead ablation — the paper's
    conclusion that non-blocking commitment suits "transactions executed
    at sites spanning a wide area" is about exactly this regime, where
    message time dwarfs log forces.
    """
    return CostModel(
        datagram=60.0,
        netmsg_rpc=130.0,
        datagram_jitter_base=2.0,
        datagram_jitter_per_load=1.0,
        datagram_send_jitter=3.0,
        protocol_timeout=4000.0,
    )


def vax_mp_profile(num_cpus: int = 4) -> CostModel:
    """4-way VAX 8200 — the throughput testbed.

    The 8200's CPUs are ~1 MIP vs the RT's 2 MIPS, so per-message CPU
    costs double; Mach 2.0 on it had a single master run queue, which the
    scheduler module models explicitly.
    """
    return CostModel(
        num_cpus=num_cpus,
        cpu_speed_factor=2.0,
        # The 8200's Mach spent far more CPU per request than the RT
        # profile's (single master run queue, slower cores, heavier
        # locking) — these produce the paper's observed saturation at a
        # handful of TPS rather than a microscopic model of the VAX.
        tranman_service_cpu=4.0,
        server_service_cpu=3.0,
        logger_service_cpu=2.0,
        comman_cpu_per_call=6.4,
        # The throughput testbed's log disk could do "no more than about
        # 30 log writes per second": a force costs a full track write.
        log_force=33.0,
        # Throughput runs are long; keep the group-commit window short
        # enough that latency stays bounded (Camelot used tens of ms).
        log_batch_timer=20.0,
    )


@dataclass
class SystemConfig:
    """Everything an experiment needs to build a simulated system.

    ``sites`` maps site name -> number of data servers at that site.
    ``seed`` drives every RNG stream (see :class:`repro.sim.rng.RngStreams`).
    """

    cost: CostModel = field(default_factory=rt_pc_profile)
    sites: Dict[str, int] = field(default_factory=lambda: {"site0": 1})
    seed: int = 0
    tranman_threads: int = 20
    # Data-server pool size.  Lock waiters occupy a worker for up to
    # ``lock_wait_timeout``; under contention a pool this small convoys
    # (lock-release messages queue behind the very waiters they would
    # unblock), so open-loop runs raise it well above the default.
    server_threads: int = 4
    # Group commit is the throughput/latency trade of §3.5 — off by
    # default (the latency experiments), switched on for Figures 4-5.
    group_commit: bool = False
    use_multicast: bool = False
    # Ablation toggle: with the optimization off, read-only participants
    # prepare and join phase two like everyone else (paper §4.2, Q2:
    # "What is the effect of the read-only optimization?").
    read_only_optimization: bool = True
    keep_trace_events: bool = True

    def with_cost(self, **overrides: float) -> "SystemConfig":
        return replace(self, cost=self.cost.with_overrides(**overrides))


# Named profiles usable from the CLI/benchmarks.
PROFILES = {
    "rt_pc": rt_pc_profile,
    "vax_mp": vax_mp_profile,
    "wan": wan_profile,
}
