"""repro: a reproduction of MAMUT (DATE 2019).

MAMUT is a multi-agent Q-learning run-time manager for QoS-aware real-time
multi-user HEVC video transcoding: three cooperating agents tune the HEVC
Quantization Parameter, the number of WPP encoding threads and the per-core
frequency of a multicore server, with throughput and quality objectives under
power and bandwidth constraints.

Quick start::

    from repro import (
        MamutController, MamutConfig, TranscodingRequest, TranscodingSession,
        Orchestrator, make_sequence,
    )

    sequence = make_sequence("Cactus", num_frames=240)
    request = TranscodingRequest(user_id="u0", sequence=sequence)
    controller = MamutController(MamutConfig.for_request(request))
    session = TranscodingSession(request, controller)
    result = Orchestrator([session]).run()
    print(result.summary().qos_violation_pct)

See the README's "Package layout" section for the module map; its
Quickstart regenerates the paper's tables and figures
(``python -m repro.cli table1``, ``table2``, ``fig2``, ``fig4``, ``fig5``).
"""

from repro.constants import (
    DVFS_VALUES_GHZ,
    HR_MAX_THREADS,
    LR_MAX_THREADS,
    QP_VALUES,
    TARGET_FPS,
)
from repro.core import (
    ActionSet,
    Controller,
    Decision,
    MamutConfig,
    MamutController,
    Observation,
    QLearningAgent,
    RewardConfig,
    RewardFunction,
    StateSpace,
    SystemState,
)
from repro.baselines import (
    HeuristicConfig,
    HeuristicController,
    MonoAgentConfig,
    MonoAgentController,
    StaticController,
)
from repro.hevc import EncoderConfig, HevcEncoder, Preset, Transcoder
from repro.manager import (
    ExperimentRunner,
    Orchestrator,
    SessionSpec,
    TranscodingSession,
    heuristic_factory,
    mamut_factory,
    monoagent_factory,
    scenario_one,
    scenario_two,
    static_factory,
)
from repro.cluster import (
    AdmissionVerdict,
    AlwaysAdmit,
    CapacityThreshold,
    ClusterOrchestrator,
    ClusterResult,
    CompositeTraffic,
    DiurnalTraffic,
    FlashCrowdTraffic,
    LeastLoaded,
    PoissonTraffic,
    PowerAware,
    PowerHeadroom,
    RoundRobin,
    WorkloadGenerator,
)
from repro.metrics import ClusterSummary, ExperimentSummary, FrameRecord, SessionSummary
from repro.platform import (
    CpuTopology,
    DvfsDriver,
    DvfsPolicy,
    MulticoreServer,
    PowerModel,
)
from repro.video import (
    ResolutionClass,
    TranscodingRequest,
    VideoSequence,
    make_sequence,
)

__version__ = "1.0.0"

__all__ = [
    # constants
    "QP_VALUES",
    "DVFS_VALUES_GHZ",
    "HR_MAX_THREADS",
    "LR_MAX_THREADS",
    "TARGET_FPS",
    # core
    "ActionSet",
    "Controller",
    "Decision",
    "MamutConfig",
    "MamutController",
    "Observation",
    "QLearningAgent",
    "RewardConfig",
    "RewardFunction",
    "StateSpace",
    "SystemState",
    # baselines
    "HeuristicConfig",
    "HeuristicController",
    "MonoAgentConfig",
    "MonoAgentController",
    "StaticController",
    # hevc
    "EncoderConfig",
    "HevcEncoder",
    "Preset",
    "Transcoder",
    # manager
    "ExperimentRunner",
    "Orchestrator",
    "SessionSpec",
    "TranscodingSession",
    "mamut_factory",
    "monoagent_factory",
    "heuristic_factory",
    "static_factory",
    "scenario_one",
    "scenario_two",
    # cluster
    "ClusterOrchestrator",
    "ClusterResult",
    "WorkloadGenerator",
    "PoissonTraffic",
    "DiurnalTraffic",
    "FlashCrowdTraffic",
    "CompositeTraffic",
    "AdmissionVerdict",
    "AlwaysAdmit",
    "CapacityThreshold",
    "PowerHeadroom",
    "RoundRobin",
    "LeastLoaded",
    "PowerAware",
    # metrics
    "ClusterSummary",
    "ExperimentSummary",
    "FrameRecord",
    "SessionSummary",
    # platform
    "CpuTopology",
    "DvfsDriver",
    "DvfsPolicy",
    "MulticoreServer",
    "PowerModel",
    # video
    "ResolutionClass",
    "TranscodingRequest",
    "VideoSequence",
    "make_sequence",
    "__version__",
]
