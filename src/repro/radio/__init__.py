"""Radio-network simulator: actions, collision models, engine, metrics."""

from .actions import (
    Action,
    Listen,
    ListenFor,
    Sleep,
    SleepUntil,
    Transmit,
    TransmitSchedule,
)
from .engine import DEFAULT_MAX_ROUNDS, run_protocol
from .metrics import NodeStats, RunResult
from .models import (
    BEEPING,
    BEEPING_SENDER_CD,
    CD,
    NO_CD,
    BeepModel,
    CDModel,
    CollisionModel,
    NoCDModel,
    SenderCDBeepModel,
    model_by_name,
)
from .node import Decision, NodeContext, Protocol, ProtocolRun
from .observations import BEEP, COLLISION, Observation, ObservationKind, SILENCE
from .trace import NullTrace, TraceEvent, TraceRecorder, TraceSink

__all__ = [
    "Action",
    "Listen",
    "ListenFor",
    "TransmitSchedule",
    "Sleep",
    "SleepUntil",
    "Transmit",
    "DEFAULT_MAX_ROUNDS",
    "run_protocol",
    "NodeStats",
    "RunResult",
    "BEEPING",
    "BEEPING_SENDER_CD",
    "CD",
    "NO_CD",
    "BeepModel",
    "SenderCDBeepModel",
    "CDModel",
    "CollisionModel",
    "NoCDModel",
    "model_by_name",
    "Decision",
    "NodeContext",
    "Protocol",
    "ProtocolRun",
    "BEEP",
    "COLLISION",
    "Observation",
    "ObservationKind",
    "SILENCE",
    "NullTrace",
    "TraceEvent",
    "TraceRecorder",
    "TraceSink",
]
