"""The paper's algorithms: CD MIS, no-CD MIS, backoffs, competition."""

from .backoff import (
    backoff_rounds,
    backoff_slots,
    geometric_slot,
    rec_ebackoff,
    snd_ebackoff,
    snd_rec_ebackoff,
    traditional_decay_receiver,
    traditional_decay_sender,
)
from .cd_mis import BeepingMISProtocol, CDMISProtocol
from .competition import CompetitionOutcome, competition, competition_rounds
from .low_degree_mis import (
    LowDegreeMISProtocol,
    low_degree_mis,
    low_degree_mis_rounds,
)
from .nocd_mis import LubyPhaseSchedule, NoCDEnergyMISProtocol
from .unknown_delta import UnknownDeltaMISProtocol, delta_guesses
from .ranks import draw_rank, is_local_maximum, rank_to_int

__all__ = [
    "backoff_rounds",
    "backoff_slots",
    "geometric_slot",
    "rec_ebackoff",
    "snd_ebackoff",
    "snd_rec_ebackoff",
    "traditional_decay_receiver",
    "traditional_decay_sender",
    "BeepingMISProtocol",
    "CDMISProtocol",
    "CompetitionOutcome",
    "competition",
    "competition_rounds",
    "LowDegreeMISProtocol",
    "low_degree_mis",
    "low_degree_mis_rounds",
    "LubyPhaseSchedule",
    "NoCDEnergyMISProtocol",
    "UnknownDeltaMISProtocol",
    "delta_guesses",
    "draw_rank",
    "is_local_maximum",
    "rank_to_int",
]
