"""Property-based tests for the sweep runtime + async ingestion.

Two invariants lock the new subsystem down:

* For any grid, shard size, and backend, sharded execution is
  element-wise identical to the serial loop — both at the ``map_jobs``
  level and through a real sweep (threshold grid, dataset shards).
* For any chunking of the input signal — including empty and
  single-sample chunks — :class:`repro.runtime.ingest.AsyncStreamingPipeline`
  produces an envelope bit-identical to the one-shot
  ``encode -> reconstruct`` path.
"""

import asyncio
import operator
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment, ExperimentSpec
from repro.core.atc import atc_encode
from repro.core.config import ATCConfig, DATCConfig
from repro.core.datc import datc_encode
from repro.runtime.executors import map_jobs, plan_shards
from repro.runtime.ingest import AsyncStreamingPipeline
from repro.rx.reconstruction import reconstruct_hybrid, reconstruct_rate
from repro.signals.dataset import DatasetSpec

FS = 2500.0

# Short D-ATC operating point so a few hundred samples span many frames.
SMALL_DATC = DATCConfig(frame_sizes=(8, 16, 32, 64))

ADD_SEVEN = partial(operator.add, 7)  # importable in spawned workers

# Tiny shared corpus for the sweep-level invariants (generated once).
_SWEEP_DATASET = DatasetSpec(n_patterns=5, duration_s=2.0, seed=2015)
_SWEEP_PATTERN = _SWEEP_DATASET.pattern(2)
_ATC = Experiment(ExperimentSpec.for_scheme("atc"))
_DATC = Experiment(ExperimentSpec())


class TestShardedExecutionMatchesSerial:
    @settings(max_examples=25, deadline=None)
    @given(
        items=st.lists(st.integers(-1000, 1000), max_size=30),
        backend=st.sampled_from(["serial", "thread", "process"]),
        jobs=st.integers(min_value=1, max_value=3),
        shard_size=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_map_jobs(self, items, backend, jobs, shard_size):
        expected = [7 + x for x in items]
        got = map_jobs(
            ADD_SEVEN, items, jobs, backend=backend, shard_size=shard_size
        )
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 200),
        jobs=st.integers(1, 8),
        shard_size=st.one_of(st.none(), st.integers(1, 50)),
    )
    def test_plan_shards_partitions_in_order(self, n, jobs, shard_size):
        shards = plan_shards(n, jobs, shard_size)
        assert [i for s in shards for i in range(s.start, s.stop)] == list(
            range(n)
        )

    @settings(max_examples=8, deadline=None)
    @given(
        vths=st.lists(
            st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.45, 0.6]),
            min_size=1,
            max_size=5,
        ),
        backend=st.sampled_from(["thread", "process"]),
        jobs=st.integers(2, 3),
    )
    def test_threshold_sweep_backend_invariant(self, vths, backend, jobs):
        serial = _ATC.sweep(_SWEEP_PATTERN, "encoder.config.vth", vths)
        sharded = _ATC.sweep(
            _SWEEP_PATTERN,
            "encoder.config.vth",
            vths,
            jobs=jobs,
            backend=backend,
        )
        assert sharded == serial  # frozen dataclasses: exact float equality

    @settings(max_examples=8, deadline=None)
    @given(
        limit=st.integers(1, 5),
        backend=st.sampled_from(["thread", "process"]),
        jobs=st.integers(2, 3),
        shard_size=st.one_of(st.none(), st.integers(1, 4)),
    )
    def test_dataset_sweep_shard_invariant(self, limit, backend, jobs, shard_size):
        serial = _DATC.dataset_sweep(_SWEEP_DATASET, limit=limit)
        sharded = _DATC.dataset_sweep(
            _SWEEP_DATASET,
            limit=limit,
            jobs=jobs,
            backend=backend,
            shard_size=shard_size,
        )
        assert np.array_equal(serial.pattern_ids, sharded.pattern_ids)
        assert np.array_equal(serial.correlations_pct, sharded.correlations_pct)
        assert np.array_equal(serial.n_events, sharded.n_events)


@st.composite
def signal_and_chunking(draw):
    """A random signal plus a random partition of it into chunks.

    Duplicate cut points produce *empty* chunks; adjacent cut points
    produce single-sample chunks — both are part of the contract.  The
    signal always spans at least one 100 Hz output bin (25 samples at
    2500 Hz): below that the one-shot decoder itself rejects the stream.
    """
    n = draw(st.integers(min_value=30, max_value=600))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    signal = rng.normal(0.0, 0.4, size=n)
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=n), max_size=8).map(sorted)
    )
    bounds = [0] + list(cuts) + [n]
    chunks = [signal[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return signal, chunks


class TestAsyncPipelineBitIdentical:
    @settings(max_examples=40, deadline=None)
    @given(data=signal_and_chunking())
    def test_datc(self, data):
        signal, chunks = data
        stream, _ = datc_encode(signal, FS, SMALL_DATC)
        expected = reconstruct_hybrid(
            stream,
            fs_out=100.0,
            vref=SMALL_DATC.vref,
            dac_bits=SMALL_DATC.dac_bits,
            smooth_window_s=0.25,
        )
        pipe = AsyncStreamingPipeline(FS, "datc", SMALL_DATC)
        envelope = asyncio.run(pipe.run(chunks))
        assert np.array_equal(envelope, expected)
        assert np.array_equal(pipe.envelope, expected)

    @settings(max_examples=40, deadline=None)
    @given(data=signal_and_chunking())
    def test_atc(self, data):
        signal, chunks = data
        stream, _ = atc_encode(signal, FS, ATCConfig(vth=0.3))
        expected = reconstruct_rate(stream, fs_out=100.0, window_s=0.25)
        pipe = AsyncStreamingPipeline(FS, "atc", ATCConfig(vth=0.3))
        envelope = asyncio.run(pipe.run(chunks))
        assert np.array_equal(envelope, expected)

    def test_single_sample_chunks(self):
        signal = np.random.default_rng(3).normal(0.0, 0.4, size=400)
        stream, _ = datc_encode(signal, FS, SMALL_DATC)
        expected = reconstruct_hybrid(
            stream,
            fs_out=100.0,
            vref=SMALL_DATC.vref,
            dac_bits=SMALL_DATC.dac_bits,
            smooth_window_s=0.25,
        )
        pipe = AsyncStreamingPipeline(FS, "datc", SMALL_DATC)
        envelope = asyncio.run(pipe.run([signal[i : i + 1] for i in range(400)]))
        assert np.array_equal(envelope, expected)

    def test_interleaved_empty_chunks(self):
        signal = np.random.default_rng(4).normal(0.0, 0.4, size=300)
        empty = signal[:0]
        chunks = [empty, signal[:150], empty, empty, signal[150:], empty]
        stream, _ = atc_encode(signal, FS, ATCConfig())
        expected = reconstruct_rate(stream, fs_out=100.0, window_s=0.25)
        pipe = AsyncStreamingPipeline(FS, "atc", ATCConfig())
        assert np.array_equal(asyncio.run(pipe.run(chunks)), expected)
