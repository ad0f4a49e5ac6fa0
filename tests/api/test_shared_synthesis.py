"""Shared pattern synthesis across the specs of one dataset sweep.

``Experiment.dataset_sweep(..., alongside=...)`` synthesises each missed
pattern once for every experiment in the pass, while each experiment
keeps its own store key, gets and puts.  These tests pin the two
halves of that contract: the synthesis count, and bit-identity (results
and store traffic) with separate single-spec sweeps.
"""

import threading

import numpy as np
import pytest

import repro.api as api
from repro.analysis.experiments import run_fig5
from repro.api import Experiment, ExperimentSpec
from repro.core.config import ATCConfig
from repro.runtime.store import ResultStore
from repro.signals.dataset import DatasetSpec

LIMIT = 4
SPECS = (
    ExperimentSpec.for_scheme("atc", ATCConfig(vth=0.3)),
    ExperimentSpec.for_scheme("datc"),
)


class RecordingStore(ResultStore):
    """A result store that logs the addresses it is asked to write."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.put_log: "list[tuple[str, str]]" = []

    def put(self, spec_key, fingerprint, arrays):
        self.put_log.append((spec_key, fingerprint))
        return super().put(spec_key, fingerprint, arrays)


@pytest.fixture
def count_patterns(monkeypatch):
    """Count ``DatasetSpec.pattern`` calls in this process (thread-safe)."""
    calls = []
    lock = threading.Lock()
    original = DatasetSpec.pattern

    def counting(self, pattern_id):
        with lock:
            calls.append(pattern_id)
        return original(self, pattern_id)

    monkeypatch.setattr(DatasetSpec, "pattern", counting)
    return calls


def _separate(dataset, backend="serial"):
    """The reference: one plain single-spec sweep per spec."""
    return [
        Experiment(spec).dataset_sweep(dataset, limit=LIMIT, jobs=2, backend=backend)
        for spec in SPECS
    ]


def _assert_same(got, want):
    assert got.scheme == want.scheme
    assert np.array_equal(got.pattern_ids, want.pattern_ids)
    assert got.correlations_pct.dtype == want.correlations_pct.dtype
    assert got.n_events.dtype == want.n_events.dtype
    assert np.array_equal(got.correlations_pct, want.correlations_pct)
    assert np.array_equal(got.n_events, want.n_events)


class TestSynthesisCount:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_run_fig5_synthesises_each_pattern_once(
        self, small_dataset, count_patterns, backend
    ):
        run_fig5(n_patterns=LIMIT, dataset=small_dataset, jobs=2, backend=backend)
        assert sorted(count_patterns) == list(range(LIMIT))

    def test_warm_run_synthesises_nothing(self, small_dataset, count_patterns, tmp_path):
        store = ResultStore(tmp_path / "cache")
        run_fig5(n_patterns=LIMIT, dataset=small_dataset, store=store)
        count_patterns.clear()
        run_fig5(n_patterns=LIMIT, dataset=small_dataset, store=store)
        assert count_patterns == []

    def test_each_spec_evaluates_only_its_own_misses(
        self, small_dataset, count_patterns, monkeypatch, tmp_path
    ):
        store = ResultStore(tmp_path / "cache")
        atc, datc = (Experiment(spec, store=store) for spec in SPECS)
        atc.dataset_sweep(small_dataset, limit=2)  # ATC has 0-1
        Experiment(SPECS[1], store=store).dataset_sweep(small_dataset, limit=1)  # D-ATC has 0
        evaluated = []
        original = api._run_patterns

        def recording(spec, patterns, *args, **kwargs):
            evaluated.append((spec.scheme, [p.pattern_id for p in patterns]))
            return original(spec, patterns, *args, **kwargs)

        monkeypatch.setattr(api, "_run_patterns", recording)
        count_patterns.clear()
        results = atc.dataset_sweep(small_dataset, limit=LIMIT, alongside=(datc,))
        assert sorted(count_patterns) == [1, 2, 3]  # the union of the misses
        assert evaluated == [("atc", [2, 3]), ("datc", [1, 2, 3])]
        for got, want in zip(results, _separate(small_dataset)):
            _assert_same(got, want)


class TestAlongsideBitIdentity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("state", ["cold", "warm", "half-warm"])
    def test_equals_separate_sweeps(self, small_dataset, tmp_path, backend, state):
        store = RecordingStore(tmp_path / "cache")
        primed = {"cold": (), "warm": SPECS, "half-warm": SPECS[:1]}[state]
        for spec in primed:
            Experiment(spec, store=store).dataset_sweep(small_dataset, limit=LIMIT)
        store.put_log.clear()

        atc, datc = (Experiment(spec, store=store) for spec in SPECS)
        results = atc.dataset_sweep(
            small_dataset, limit=LIMIT, jobs=2, backend=backend, alongside=(datc,)
        )
        assert len(results) == 2
        for got, want in zip(results, _separate(small_dataset)):
            _assert_same(got, want)

        # Store traffic: a fully cached spec writes nothing; every other
        # spec writes exactly what its own single-spec sweep would.
        expected = []
        for spec in SPECS:
            if spec in primed:
                continue
            fresh = RecordingStore(tmp_path / f"fresh-{spec.scheme}")
            Experiment(spec, store=fresh).dataset_sweep(small_dataset, limit=LIMIT)
            expected += fresh.put_log
        assert store.put_log == expected

    def test_separate_stores_keep_their_own_traffic(self, small_dataset, tmp_path):
        stores = [RecordingStore(tmp_path / s.scheme) for s in SPECS]
        atc, datc = (Experiment(s, store=st) for s, st in zip(SPECS, stores))
        atc.dataset_sweep(small_dataset, limit=LIMIT, alongside=(datc,))
        for spec, store in zip(SPECS, stores):
            assert {key for key, _ in store.put_log} == {spec.key()}
            assert len(store.put_log) == LIMIT

    def test_mixed_store_and_storeless(self, small_dataset, tmp_path):
        store = ResultStore(tmp_path / "cache")
        Experiment(SPECS[0], store=store).dataset_sweep(small_dataset, limit=LIMIT)
        results = Experiment(SPECS[0], store=store).dataset_sweep(
            small_dataset, limit=LIMIT, alongside=(Experiment(SPECS[1]),)
        )
        for got, want in zip(results, _separate(small_dataset)):
            _assert_same(got, want)


class TestAlongsideApi:
    def test_empty_alongside_returns_a_single_result(self, small_dataset):
        result = Experiment(SPECS[1]).dataset_sweep(small_dataset, limit=2)
        assert result.scheme == "datc"

    def test_alongside_is_keyword_only(self, small_dataset):
        with pytest.raises(TypeError):
            Experiment(SPECS[0]).dataset_sweep(
                small_dataset, 2, None, None, None, (Experiment(SPECS[1]),)
            )

    def test_rejects_non_experiments(self, small_dataset):
        with pytest.raises(TypeError, match="alongside"):
            Experiment(SPECS[0]).dataset_sweep(
                small_dataset, limit=2, alongside=(SPECS[1],)
            )

    def test_results_do_not_share_arrays(self, small_dataset):
        a, b = Experiment(SPECS[0]).dataset_sweep(
            small_dataset, limit=2, alongside=(Experiment(SPECS[1]),)
        )
        assert not np.shares_memory(a.pattern_ids, b.pattern_ids)
        assert not np.shares_memory(a.correlations_pct, b.correlations_pct)
