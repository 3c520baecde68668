"""Health-aware decision making: system health management unified with
sequential decision making under uncertainty.

The package provides a tabular decision-problem substrate with exact
solvers, event-time prognostics for degrading components, the classical
separated health-management pipeline for comparison, a rover scenario
domain compiled into decision problems, and the operational loop that
executes policies against a simulated plant with a safety override
layer.
"""
from .errors import (
    EscalationRequired,
    HadmError,
    ImpossibleObservationError,
    InadmissibleActionError,
    IncompleteValueTableError,
    InvalidConfigError,
    ModelError,
    NotDeterministicError,
    ResourceLimitError,
    UnconstrainedSigmaError,
)
from .loop import (
    LoopRecord,
    LoopTrace,
    OfflinePolicyProvider,
    OnlineExpectimaxProvider,
    SerPolicy,
    SerReport,
    arbitrate,
    run_loop,
    validate_ser,
)
from .model import (
    Policy,
    Problem,
    ValueTable,
    belief_update,
    closed_loop_value,
    evaluate_policy,
    expected_utility,
    extract_nonstationary,
    extract_policy,
    open_loop_expectation,
    plan_utility,
    point_mass,
    q_value,
    validate_belief,
    value_iterate,
)
from .prognostics import (
    DegradationModel,
    EventThreshold,
    PrognosisRequest,
    PrognosisResult,
    closed_forms,
    eol_distribution,
    max_prediction_health,
    monte_carlo_eol,
    predict_eol_deterministic,
    predict_eol_stochastic,
    prognose,
    rul,
    sigma,
)
from .shm import (
    DiagnosisRule,
    FaultDescriptor,
    MitigationRule,
    SensorObservation,
    ThresholdPredicate,
    detect,
    diagnose,
    phm_route_choice,
    prognose_fault,
    select_recovery,
)
from .strategies import (
    STRATEGIES,
    analytic_expectation,
    applicable_strategies,
    make_provider,
)

__version__ = "1.0.0"
