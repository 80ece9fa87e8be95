"""The sampler's one cell loop: every workload kind, same rules."""

import dataclasses
import hashlib
import json

import pytest

from repro.claims.sampler import SamplerConfig, collect_measurements
from repro.claims.spec import (
    BackoffEnergyBounds,
    BackoffWorkload,
    BudgetWorkload,
    ChannelSweepWorkload,
    ChurnWorkload,
    Claim,
    EvalContext,
    HarnessWorkload,
    PairedWorkload,
    PaperRef,
    RateWorkload,
    ScalarBound,
    SweepWorkload,
)
from repro.constants import ConstantsProfile
from repro.exec.cache import ResultCache
from repro.exec.executor import execution_defaults
from repro.exec.resilience import RetryPolicy

FAST = ConstantsProfile.fast()
REF = PaperRef("Lemma", "§3", ("E1",), "s")

#: One tiny workload of each kind; two batches each where the kind
#: batches, so the keys cover the window after the first batch too.
WORKLOADS = {
    "sweep": SweepWorkload(
        protocols=("cd-mis",), sizes=(16,), trials=2, batch=1, max_batches=2
    ),
    "rate": RateWorkload(
        protocols=("cd-mis",), n=16, trials=2, batch=1, max_batches=2
    ),
    "budget": BudgetWorkload(
        n=16, budgets=(1, 2), trials=2, batch=1, max_batches=2
    ),
    "backoff": BackoffWorkload(
        delta=8,
        k_values=(2,),
        sender_counts=(1, 16),
        trials=2,
        batch=1,
        max_batches=2,
    ),
    "churn": ChurnWorkload(
        protocol="cd-mis",
        n=16,
        rates=(0.0, 0.1),
        stop=32,
        trials=2,
        batch=1,
        max_batches=2,
    ),
    "channels": ChannelSweepWorkload(
        channel_counts=(1, 2), sizes=(16,), trials=2, batch=1, max_batches=2
    ),
    "paired": PairedWorkload(
        protocol_a="cd-mis",
        model_a="cd",
        protocol_b="beeping-mis",
        model_b="beep",
        n=16,
        trials=2,
        batch=1,
        max_batches=2,
    ),
    "harness": HarnessWorkload("luby-phase-props", n=12, graphs=1, seeds=2),
}

#: sha256 of the newline-joined sorted keys each workload above writes
#: to a fresh cache (base seed 0, fast constants).
GOLDEN_KEY_DIGESTS = {
    "backoff": "c08768f2b1cfde4e2c1385a13ad160663b195ee221a7e188d54614a2a549acec",
    "budget": "62114d268be8a5eaa6454da107cfee14a4f824d30a04b6b8a919f3502998d3fd",
    "channels": "20fea7feeb40da5512d724fda0cb58d6e11def198aef2e590d68f9ee04e79b37",
    "churn": "13e486f04f49d603510a4d660e50b53aa8b78b56d1316e90a657fc7defa2dfb1",
    "harness": "baca59b90cd07072964ccccbe332b184755a5daae21ff124cc2ca439e0b36588",
    "paired": "c9ebc7d0937dd7af223c6f9cca19780bc2d820ba815181ab4f644728acc1e19a",
    "rate": "87ac5f4c8f92b09fc040fccf0c7a00e506e53f474c6aad1ae7581d3de36c7ca5",
    "sweep": "6a92e600290ba3cf542151ddad726935e908ef8e0b8cc9f72a64eb8d74cfbb4e",
}


#: sha256 of each workload's measurements (sorted-key JSON of sweeps,
#: cells, pairs, scalars, models and trials used), same settings.
GOLDEN_MEASUREMENT_DIGESTS = {
    "backoff": "680ba3fdc9e436fcdfe6eb5afd5eeb6d9fa4e6c906877c6542e255a8a6c8aae5",
    "budget": "ac593d6a27091a06f79ce9548f22b4191f3f936db3ab1b0d037c6d79c8bd2a77",
    "channels": "46b38eef6ee7a6a2cfa42e18e58cb993398460a979ac9208443a3228c4e28442",
    "churn": "3acf960a3119641dfee6e623f38285639f8b1d81784580d3629e5b9b9812791a",
    "harness": "d62a914a220456ca61982c87fd4f6c4826df07979e19690fe8c45479feb8728a",
    "paired": "89f40153408332a4015b15a04d5c88d3c490b36ac66c1934d089cf6d8af51b7a",
    "rate": "968bf7ed34680854c35fb49d9ce33ce78df1194cb0a2467084009de52f0c2c38",
    "sweep": "ee255af608d9e901dd661bbc8c5936d84ea7caf5cd3d66031c8c800de48feed1",
}

#: Every attempt of every trial times out ...
TIMEOUT_POLICY = RetryPolicy(max_retries=0, timeout_s=1e-4)

#: ... given trials this large (each runs for milliseconds).
SLOW_WORKLOADS = dict(
    WORKLOADS,
    sweep=dataclasses.replace(WORKLOADS["sweep"], sizes=(128,)),
    rate=dataclasses.replace(WORKLOADS["rate"], n=128),
    budget=dataclasses.replace(WORKLOADS["budget"], n=512),
    backoff=dataclasses.replace(
        WORKLOADS["backoff"], delta=128, k_values=(32,)
    ),
    churn=dataclasses.replace(WORKLOADS["churn"], n=128),
    channels=dataclasses.replace(WORKLOADS["channels"], sizes=(128,)),
    paired=dataclasses.replace(WORKLOADS["paired"], n=128),
)


class KeyLog(ResultCache):
    """A result cache that remembers every key written to it."""

    def __init__(self, root):
        super().__init__(root)
        self.written = []

    def put(self, key, record):
        self.written.append(key)
        super().put(key, record)


def collect(workload, strict=None):
    claim = Claim(
        claim_id="c",
        title="t",
        ref=REF,
        workload=workload,
        strict=strict or (ScalarBound(name="undecidable", key="no", bound=1),),
    )
    return collect_measurements(
        workload,
        [claim],
        EvalContext(constants=FAST),
        SamplerConfig(constants=FAST),
    )[0]


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_golden_cache_keys(tmp_path, kind):
    cache = KeyLog(tmp_path / "cache")
    with execution_defaults(cache=cache):
        measurements = collect(WORKLOADS[kind])
    assert measurements.trials_used > 0
    digest = hashlib.sha256(
        "\n".join(sorted(cache.written)).encode()
    ).hexdigest()
    assert digest == GOLDEN_KEY_DIGESTS.get(kind)


def measurement_digest(measurements):
    document = {
        "sweeps": measurements.sweeps,
        "cells": measurements.cells,
        "paired": measurements.paired,
        "scalars": measurements.scalars,
        "models": measurements.models,
        "trials_used": measurements.trials_used,
    }
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_golden_measurements(kind):
    digest = measurement_digest(collect(WORKLOADS[kind]))
    assert digest == GOLDEN_MEASUREMENT_DIGESTS.get(kind)


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_retry_policy_reaches_every_kind(kind):
    with execution_defaults(policy=TIMEOUT_POLICY):
        measurements = collect(SLOW_WORKLOADS[kind])
    assert measurements.trials_used == 0


def test_quarantined_backoff_cell_leaves_lemma8_undecided():
    lemma8 = BackoffEnergyBounds(name="lemma8")
    with execution_defaults(policy=TIMEOUT_POLICY):
        measurements = collect(SLOW_WORKLOADS["backoff"], strict=(lemma8,))
    assert measurements.cells["backoff/k=32/s=1"]["trials"] == 0
    result = lemma8.evaluate(measurements, EvalContext(constants=FAST))
    assert not result.decided
