"""Energy-budgeted {S, T, L} strategies for the Theorem 1 experiment.

The lower-bound proof models an energy-``b`` algorithm as a distribution
over infinite {Sleep, Transmit, Listen} sequences with at most ``b``
awake entries, followed until the node hears something.  These protocol
classes realize concrete members of that family so the bound can be
probed empirically:

* :class:`SynchronizedCoinStrategy` — all nodes are awake in rounds
  ``0..b-1`` and flip a fair coin each round between transmit and
  listen.  A matched pair fails to communicate with probability exactly
  ``2^-b`` (each round is "useful" iff the coins differ), so the run
  fails with probability ``1 - (1 - 2^-b)^(n/4)`` — the cleanest curve
  against which to compare the theorem's ``1 - e^{-n/4^{b+1}}`` bound.
* :class:`EnergyCappedCDMIS` — the paper's actual Algorithm 1 with a
  hard awake-round budget: when the budget expires, the node applies the
  proof's forced rule (never heard anything -> must join, else stay
  out).  Shows a *real* algorithm degrading exactly as the bound
  predicts once ``b`` drops below ~log n.

Decision rule of the coin strategy (from the proof): a node
that hears something decides OUT_MIS (its partner transmitted first); a
node that exhausts its budget silent must decide IN_MIS.
"""

from __future__ import annotations

from typing import Optional

from ..constants import ConstantsProfile
from ..errors import ConfigurationError
from ..radio.actions import Listen, Sleep, Transmit
from ..radio.node import Decision, NodeContext, Protocol, ProtocolRun
from ..core.ranks import draw_rank

__all__ = [
    "SynchronizedCoinStrategy",
    "EnergyCappedCDMIS",
]


class SynchronizedCoinStrategy(Protocol):
    """Awake rounds 0..b-1; fair coin between transmit and listen."""

    name = "sync-coin"
    compatible_models = ("cd", "no-cd", "beep")

    def __init__(self, budget: int):
        if budget < 0:
            raise ConfigurationError(f"budget must be non-negative, got {budget}")
        self.budget = budget

    def max_rounds_hint(self, n: int, delta: int) -> int:
        return self.budget + 1

    def run(self, ctx: NodeContext) -> ProtocolRun:
        for _ in range(self.budget):
            if ctx.rng.random() < 0.5:
                yield Transmit(1)
            else:
                observation = yield Listen()
                if observation.heard_something:
                    ctx.decide(Decision.OUT_MIS)
                    return
        ctx.decide(Decision.IN_MIS)


class EnergyCappedCDMIS(Protocol):
    """Algorithm 1 truncated to an awake-round budget ``b``.

    Follows Algorithm 1 exactly while the budget lasts.  On exhaustion
    it applies the proof's forced decision: a node whose entire awake
    history was silent must join (conditional probability of being
    isolated >= 1/2); a node that heard something stays out.
    """

    name = "energy-capped-cd-mis"
    compatible_models = ("cd", "beep")

    def __init__(self, budget: int, constants: Optional[ConstantsProfile] = None):
        if budget < 0:
            raise ConfigurationError(f"budget must be non-negative, got {budget}")
        self.budget = budget
        self.constants = constants or ConstantsProfile.practical()

    def max_rounds_hint(self, n: int, delta: int) -> int:
        bits = self.constants.rank_bits(n)
        phases = self.constants.luby_phases(n)
        return phases * (bits + 1) + 1

    def run(self, ctx: NodeContext) -> ProtocolRun:
        bits = self.constants.rank_bits(ctx.n)
        phases = self.constants.luby_phases(ctx.n)
        spent = 0
        ever_heard = False

        def out_of_budget() -> bool:
            return spent >= self.budget

        for _ in range(phases):
            rank = draw_rank(ctx.rng, bits)
            lost = False
            for position, bit in enumerate(rank):
                if out_of_budget():
                    ctx.decide(
                        Decision.OUT_MIS if ever_heard else Decision.IN_MIS
                    )
                    return
                spent += 1
                if bit:
                    yield Transmit(1)
                else:
                    observation = yield Listen()
                    if observation.heard_something:
                        ever_heard = True
                        lost = True
                        remaining = bits - (position + 1)
                        if remaining:
                            yield Sleep(remaining)
                        break
            if out_of_budget():
                ctx.decide(Decision.OUT_MIS if ever_heard else Decision.IN_MIS)
                return
            spent += 1
            if not lost:
                yield Transmit(1)
                ctx.decide(Decision.IN_MIS)
                return
            observation = yield Listen()
            if observation.heard_something:
                ever_heard = True
                ctx.decide(Decision.OUT_MIS)
                return
        ctx.decide(Decision.OUT_MIS if ever_heard else Decision.IN_MIS)
