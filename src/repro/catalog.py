"""The protocol catalog: algorithm names, default models, constant profiles.

One registry maps each algorithm's public name (``cd-mis``,
``nocd-energy-mis``, ...) to a protocol factory and its default
collision model, and each constants-profile name to its
:class:`~repro.constants.ConstantsProfile` constructor.  The CLI,
campaigns, the claims sampler and the campaign service all resolve
names here.
"""

from __future__ import annotations

from typing import Callable, Dict

from .baselines import (
    LowDegreeMISProtocol,
    MultichannelMISProtocol,
    NaiveBackoffMISProtocol,
    NaiveCDLubyProtocol,
    SenderCDBeepingMISProtocol,
)
from .constants import ConstantsProfile
from .core import (
    BeepingMISProtocol,
    CDMISProtocol,
    NoCDEnergyMISProtocol,
    UnknownDeltaMISProtocol,
)
from .errors import ConfigurationError
from .radio.node import Protocol

__all__ = ["PROTOCOLS", "DEFAULT_MODEL", "PROFILES", "make_protocol"]

# Factories take (constants, channels=1); only the channel-hopping
# protocol consumes the channel count — for everything else --channels
# merely lifts the collision model (see run_trials).  The default keeps
# single-argument callers (service job normalization, campaigns,
# claims) on the single-channel path.
PROTOCOLS: Dict[str, Callable[[ConstantsProfile, int], Protocol]] = {
    "cd-mis": lambda constants, channels=1: CDMISProtocol(constants=constants),
    "beeping-mis": lambda constants, channels=1: BeepingMISProtocol(
        constants=constants
    ),
    "naive-cd-luby": lambda constants, channels=1: NaiveCDLubyProtocol(
        constants=constants
    ),
    "nocd-energy-mis": lambda constants, channels=1: NoCDEnergyMISProtocol(
        constants=constants
    ),
    "davies-low-degree-mis": lambda constants, channels=1: LowDegreeMISProtocol(
        constants=constants
    ),
    "naive-backoff-mis": lambda constants, channels=1: NaiveBackoffMISProtocol(
        constants=constants
    ),
    "unknown-delta-mis": lambda constants, channels=1: UnknownDeltaMISProtocol(
        constants=constants
    ),
    "sender-cd-beep-mis": lambda constants, channels=1: SenderCDBeepingMISProtocol(
        constants=constants
    ),
    "mc-luby": lambda constants, channels=1: MultichannelMISProtocol(
        constants=constants, channels=channels
    ),
}

DEFAULT_MODEL: Dict[str, str] = {
    "cd-mis": "cd",
    "beeping-mis": "beep",
    "naive-cd-luby": "cd",
    "nocd-energy-mis": "no-cd",
    "davies-low-degree-mis": "no-cd",
    "naive-backoff-mis": "no-cd",
    "unknown-delta-mis": "no-cd",
    "sender-cd-beep-mis": "beep-sender-cd",
    "mc-luby": "cd",
}

PROFILES: Dict[str, Callable[[], ConstantsProfile]] = {
    "paper": ConstantsProfile.paper,
    "practical": ConstantsProfile.practical,
    "fast": ConstantsProfile.fast,
}


def make_protocol(
    name: str, constants: ConstantsProfile, channels: int = 1
) -> Protocol:
    """Instantiate a protocol by catalog name.

    Raises :class:`~repro.errors.ConfigurationError` naming the choices
    when ``name`` is not in the catalog.
    """
    try:
        factory = PROTOCOLS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choose from {sorted(PROTOCOLS)}"
        ) from None
    return factory(constants, channels)
