"""descentlab: first-order optimization algorithms, their convergence bounds,
and a harness that verifies each bound empirically."""

__version__ = "0.1.0"

from .nonsmooth import Regularizer, ProxCertificate, prox, subgradient, prox_certificate
from .problems import (
    FiniteSumProblem,
    GroundTruth,
    ProblemConstants,
    CompositeProblem,
    Fixture,
    build_least_squares,
    build_scalar_pl,
    build_abs_loss,
    minibatch_constants,
    make_composite,
    fixture,
    fixture_names,
)
from .algorithms import (
    StepSchedule,
    Trace,
    RunConfig,
    DivergenceError,
    run_lockstep,
    run_algorithm,
    averaged_iterate,
    write_traces_csv,
)
from .theory import (
    SETTINGS,
    InitState,
    BoundCurve,
    ComplexityAnswer,
    HypothesisError,
    bound_curve,
    complexity_iterations,
    complexity_table,
    answer_schedule,
)
from .harness import (
    ExpectationEstimate,
    Verdict,
    estimate,
    verify_bound,
    property_suite,
    enumerate_minibatch_oracle,
    lyapunov_check,
    default_checkpoints,
    run_verification,
)
