"""repro — reproduction of the DATE 2015 D-ATC muscle-force transmission system.

An all-digital spike-based scheme that encodes surface-EMG as asynchronous
threshold-crossing events with a dynamically adapted threshold (D-ATC),
transmitted over a behavioural IR-UWB link and reconstructed at the
receiver.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the paper-vs-measured results.

Quick start::

    from repro import Experiment, ExperimentSpec, default_dataset

    pattern = default_dataset().pattern(0)
    datc = Experiment(ExperimentSpec()).run_one(pattern)   # paper scheme
    atc = Experiment(ExperimentSpec.for_scheme("atc")).run_one(pattern)
    print(atc.correlation_pct, datc.correlation_pct)

Every experiment is one declarative, hashable ``ExperimentSpec`` (see
docs/API.md): serialise it with ``to_dict``/``to_json``, derive sweep
grids with ``replace_at``, and attach a ``ResultStore`` to memoise
repeated sweeps on disk.  ``Experiment`` runs it: ``run`` for many
patterns, ``sweep`` / ``dataset_sweep`` / ``link_sweep`` for every
parameter study.  ``run_atc``/``run_datc`` are one-line conveniences
over the same path.

Execution is pure numpy: each hot loop (the batched and multi-session
D-ATC frame scans, batched scoring) has one vectorised implementation,
held bit-identical to the scalar paths by the test suite.
"""

from .core import (
    ATCConfig,
    ATCEncoder,
    ATCTrace,
    DATCConfig,
    DATCEncoder,
    DATCTrace,
    EventStream,
    MultiChannelDATC,
    PipelineResult,
    StreamingEncoder,
    ThresholdPredictor,
    atc_encode,
    atc_encode_batch,
    datc_encode,
    datc_encode_batch,
    encode_batch,
    merge_streams,
    run_atc,
    run_datc,
)
from .runtime import (
    AsyncStreamingPipeline,
    ExperimentQueue,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    QueueBackend,
    RemoteBackend,
    RemoteStore,
    ResultStore,
    ServerBusy,
    ServerReplyError,
    SessionBatch,
    SessionResult,
    SessionServer,
    SessionSpec,
    StreamingClient,
    map_jobs,
    run_sessions,
    run_worker,
)
from .rx import StreamingDecoder, reconstruct_batch
from .signals import DatasetSpec, EMGModel, Pattern, default_dataset
from .uwb import LinkConfig, simulate_link, simulate_link_batch
from .api import (
    DecoderSpec,
    EncoderSpec,
    Experiment,
    ExperimentSpec,
    LinkSpec,
    ScoreSpec,
)

__version__ = "1.1.0"

__all__ = [
    "ATCConfig",
    "ATCEncoder",
    "ATCTrace",
    "DATCConfig",
    "DATCEncoder",
    "DATCTrace",
    "EventStream",
    "MultiChannelDATC",
    "PipelineResult",
    "StreamingEncoder",
    "ThresholdPredictor",
    "atc_encode",
    "atc_encode_batch",
    "datc_encode",
    "datc_encode_batch",
    "encode_batch",
    "merge_streams",
    "run_atc",
    "run_datc",
    "AsyncStreamingPipeline",
    "ExperimentQueue",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "QueueBackend",
    "RemoteBackend",
    "RemoteStore",
    "ResultStore",
    "ServerBusy",
    "ServerReplyError",
    "SessionBatch",
    "SessionResult",
    "SessionServer",
    "SessionSpec",
    "StreamingClient",
    "map_jobs",
    "run_sessions",
    "run_worker",
    "DecoderSpec",
    "EncoderSpec",
    "Experiment",
    "ExperimentSpec",
    "LinkSpec",
    "ScoreSpec",
    "StreamingDecoder",
    "reconstruct_batch",
    "LinkConfig",
    "simulate_link",
    "simulate_link_batch",
    "DatasetSpec",
    "EMGModel",
    "Pattern",
    "default_dataset",
    "__version__",
]
