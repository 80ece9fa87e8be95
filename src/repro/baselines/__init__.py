"""Baselines the paper's algorithms are measured against.

Radio baselines (energy-oblivious):

* :class:`NaiveCDLubyProtocol` — Algorithm 1 without early sleep;
  O(log^2 n) energy in the CD model (Section 1.3 strawman).
* :class:`NaiveBackoffMISProtocol` — traditional-backoff simulation of
  Algorithm 1 in no-CD; O(log^4 n)-ish energy and rounds (Section 5.1
  strawman).
* :class:`~repro.core.low_degree_mis.LowDegreeMISProtocol` (re-exported)
  with ``degree_bound=Delta`` — our stand-in for the improved Davies
  algorithm of Section 4.2: round-efficient, energy-oblivious.
* :class:`MultichannelMISProtocol` — Daum–Kuhn-style channel hopping:
  C parallel rank tournaments plus a serialized announce block; the
  C=1 instance is bit-identical to :class:`NaiveCDLubyProtocol`.

Idealized (message-passing) references:

* :func:`luby_mis` — classical Luby; ground truth for residual-edge
  halving (Lemma 5).
* :func:`~repro.graphs.properties.greedy_mis` (re-exported) — the
  centralized sequential reference.
"""

from ..core.low_degree_mis import LowDegreeMISProtocol
from ..graphs.properties import greedy_mis
from .backoff_sim_mis import NaiveBackoffMISProtocol
from .beep_sender_cd_mis import SenderCDBeepingMISProtocol
from .luby import LubyResult, luby_mis
from .multichannel_mis import MultichannelMISProtocol
from .naive_cd_luby import NaiveCDLubyProtocol

__all__ = [
    "LowDegreeMISProtocol",
    "greedy_mis",
    "NaiveBackoffMISProtocol",
    "SenderCDBeepingMISProtocol",
    "LubyResult",
    "luby_mis",
    "MultichannelMISProtocol",
    "NaiveCDLubyProtocol",
]
