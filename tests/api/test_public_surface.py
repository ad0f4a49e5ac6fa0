"""Sweeps have one public entry point: :class:`repro.api.Experiment`.

The module-level sweep functions of ``repro.analysis`` and the
``run_batch`` batch runner are gone from every namespace; the spec-path
recipe and result types they used stay exported.
"""

import importlib

import pytest

REMOVED = {
    "repro": ("run_batch",),
    "repro.core": ("run_batch",),
    "repro.core.pipeline": ("run_batch", "warn_legacy"),
    "repro.analysis": (
        "atc_threshold_sweep",
        "dataset_sweep",
        "frame_size_sweep",
        "dac_resolution_sweep",
        "pulse_loss_sweep",
        "link_erasure_sweep",
        "snr_sweep",
        "weight_sweep",
    ),
}


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_not_exported(module):
    namespace = importlib.import_module(module)
    for name in REMOVED[module]:
        assert name not in namespace.__all__
        assert not hasattr(namespace, name)


def test_sweeps_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.analysis.sweeps")


def test_spec_path_names_stay_exported():
    import repro.analysis
    from repro.api import DatasetSweepResult, SweepPoint

    assert repro.analysis.SweepPoint is SweepPoint
    assert repro.analysis.DatasetSweepResult is DatasetSweepResult
    for name in ("dac_resolution_config", "SweepPoint", "DatasetSweepResult"):
        assert name in repro.analysis.__all__
