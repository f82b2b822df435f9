"""System-level resource modelling: wall-clock time per round.

The paper measures resource efficiency in communication rounds and GFLOPs;
real deployments care about *time*.  This module converts the simulation's
measured per-client FLOPs and bytes into simulated wall-clock time under a
device/network model:

* each client k has a compute rating ``flops_per_second[k]`` and a link
  ``(bandwidth_bps[k], latency_s[k])``;
* a synchronous round takes ``max_k (compute_k + comm_k)`` plus server
  aggregation time (aggregation is |w|-linear and usually negligible);
* stragglers therefore dominate — the classic synchronous-FL effect, and
  the reason reducing *rounds* (FedTrip's goal) matters more than reducing
  per-round compute for slow-network deployments.

Profiles are deliberately simple named presets (wifi / 4g / iot) so benches
and examples can report "simulated hours to target accuracy".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fl.history import History
from repro.fl.types import ClientUpdate

__all__ = ["DeviceProfile", "NETWORK_PRESETS", "SystemModel", "RoundTime"]


@dataclass(frozen=True)
class DeviceProfile:
    """Compute + link characteristics of one client device."""

    flops_per_second: float      # sustained training throughput
    bandwidth_bps: float         # symmetric up/down link bandwidth
    latency_s: float = 0.05      # per-transfer latency

    def __post_init__(self) -> None:
        if self.flops_per_second <= 0 or self.bandwidth_bps <= 0 or self.latency_s < 0:
            raise ValueError("invalid device profile")

    def compute_time(self, flops: float) -> float:
        return flops / self.flops_per_second

    def transfer_time(self, bytes_: float) -> float:
        # Down + up are charged by the caller via total bytes; latency is
        # paid twice (one round trip each way).
        return bytes_ * 8.0 / self.bandwidth_bps + 2.0 * self.latency_s


#: Named presets roughly matching common FL deployment studies.
NETWORK_PRESETS: Dict[str, DeviceProfile] = {
    # A desktop-class client on campus wifi.
    "wifi": DeviceProfile(flops_per_second=2e10, bandwidth_bps=50e6, latency_s=0.02),
    # A mid-range phone on 4G.
    "4g": DeviceProfile(flops_per_second=5e9, bandwidth_bps=10e6, latency_s=0.06),
    # A constrained IoT node on a shared uplink.
    "iot": DeviceProfile(flops_per_second=5e8, bandwidth_bps=1e6, latency_s=0.1),
}


@dataclass
class RoundTime:
    """Decomposed duration of one synchronous round."""

    round_idx: int
    compute_s: float        # slowest client's compute time
    comm_s: float           # slowest client's transfer time
    total_s: float
    straggler: int          # client id that set the pace


class SystemModel:
    """Maps measured per-round costs onto simulated wall-clock time.

    Parameters
    ----------
    profiles:
        One :class:`DeviceProfile` per client id, or a single profile used
        for everyone, or a preset name from :data:`NETWORK_PRESETS`.
    heterogeneity:
        Optional multiplicative compute-speed spread: client k's speed is
        scaled by a deterministic factor in ``[1/h, 1]`` (h >= 1), so some
        clients are up to h-times slower — the straggler knob.
    """

    def __init__(
        self,
        profiles,
        n_clients: int,
        heterogeneity: float = 1.0,
        seed: int = 0,
    ) -> None:
        if isinstance(profiles, str):
            profiles = NETWORK_PRESETS[profiles]
        if isinstance(profiles, DeviceProfile):
            profiles = [profiles] * n_clients
        profiles = list(profiles)
        if len(profiles) != n_clients:
            raise ValueError(f"need {n_clients} profiles, got {len(profiles)}")
        if heterogeneity < 1.0:
            raise ValueError("heterogeneity must be >= 1")
        rng = np.random.default_rng(seed)
        slow = rng.uniform(1.0 / heterogeneity, 1.0, size=n_clients)
        self.profiles: List[DeviceProfile] = [
            DeviceProfile(
                flops_per_second=p.flops_per_second * s,
                bandwidth_bps=p.bandwidth_bps,
                latency_s=p.latency_s,
            )
            for p, s in zip(profiles, slow)
        ]
        self.round_times: List[RoundTime] = []

    # ------------------------------------------------------------------
    def duration_s(self, client_id: int, flops: float, comm_bytes: float) -> float:
        """Simulated seconds for one client task (local training + up/down
        transfer), strictly positive so event times always advance.  The
        event-driven modes price each task from its measured FLOPs/bytes,
        so a straggler takes the same simulated time whether the server
        waits for it (sync) or aggregates without it."""
        prof = self.profiles[client_id]
        return max(
            prof.compute_time(float(flops)) + prof.transfer_time(float(comm_bytes)),
            1e-9,
        )

    def observe(self, updates: Sequence[ClientUpdate], global_weights,
                extra_s: float = 0.0) -> None:
        """Update-observer hook: compute this round's simulated duration.

        ``extra_s`` is additional simulated time the round spent outside
        client compute/transfer — injected straggler delays and retry
        backoff under the engine's failure policy — folded into the
        round's total so the virtual clock prices fault handling.
        """
        times = []
        for u in updates:
            prof = self.profiles[u.client_id]
            t = prof.compute_time(u.flops) + prof.transfer_time(u.comm_bytes)
            times.append((t, prof.compute_time(u.flops), prof.transfer_time(u.comm_bytes), u.client_id))
        if times:
            total, comp, comm, who = max(times)
        else:
            # A skipped round (quorum/no-updates): nobody reported, but the
            # cohort still burned the failure-handling time.
            total, comp, comm, who = 0.0, 0.0, 0.0, -1
        self.round_times.append(
            RoundTime(
                round_idx=len(self.round_times),
                compute_s=comp,
                comm_s=comm,
                total_s=total + float(extra_s),
                straggler=who,
            )
        )

    def attach(self, engine) -> "SystemModel":
        engine.update_observers.append(self.observe)
        return self

    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        return float(sum(rt.total_s for rt in self.round_times))

    def cumulative_seconds(self) -> np.ndarray:
        return np.cumsum([rt.total_s for rt in self.round_times])

    def time_to_accuracy(self, history: History, target: float) -> Optional[float]:
        """Simulated seconds until the global model first hits ``target``."""
        r = history.rounds_to_accuracy(target)
        if r is None:
            return None
        cum = self.cumulative_seconds()
        if r > len(cum):
            return None
        return float(cum[r - 1])

    def straggler_counts(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for rt in self.round_times:
            out[rt.straggler] = out.get(rt.straggler, 0) + 1
        return out

    def summary(self) -> Dict[str, float]:
        if not self.round_times:
            raise ValueError("no rounds observed")
        comp = [rt.compute_s for rt in self.round_times]
        comm = [rt.comm_s for rt in self.round_times]
        return {
            "total_seconds": self.total_seconds(),
            "mean_round_seconds": self.total_seconds() / len(self.round_times),
            "compute_fraction": float(np.sum(comp) / max(self.total_seconds(), 1e-12)),
            "comm_fraction": float(np.sum(comm) / max(self.total_seconds(), 1e-12)),
        }
