"""Random walks over the restricted OSN interface.

Implements the paper's two baseline samplers — Simple Random Walk (SRW) and
Metropolis–Hastings Random Walk (MHRW), §2.2 — their two usage schemes
("many short runs" and "one long run", §6.1), and the Geweke convergence
monitor (§2.2.3) used to decide burn-in on the fly.
"""

from repro.walks.transitions import (
    BidirectionalWalk,
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
    TransitionDesign,
)
from repro.walks.walker import WalkResult, run_walk
from repro.walks.batch import (
    BatchWalkResult,
    has_batch_kernel,
    run_nbrw_walk_batch,
    run_walk_batch,
    target_weights_batch,
    walk_attribute_matrix,
)
from repro.walks.kernels import (
    KernelBackend,
    capability_report,
    default_backend_name,
    get_backend,
    require_backend,
)
from repro.walks.samplers import BurnInSampler, LongRunSampler, SampleBatch
from repro.walks.baselines import BFSSampler, DFSSampler, SnowballSampler
from repro.walks.convergence import (
    BatchConvergenceReport,
    BatchGewekeResult,
    GewekeMonitor,
    diagnose_walk_batch,
    geweke_batch,
)
from repro.walks.frontier import FrontierSampler
from repro.walks.gelman_rubin import (
    GelmanRubinMonitor,
    ParallelBurnInSampler,
    psrf_matrix,
)
from repro.walks.parallel import ShardedWalkEngine, default_worker_count
from repro.walks.raftery_lewis import RafteryLewisResult, raftery_lewis
from repro.walks.nonbacktracking import NonBacktrackingSampler, run_nbrw_walk
from repro.walks.autocorr import (
    autocorrelation,
    autocorrelation_matrix,
    effective_sample_size,
    effective_sample_size_matrix,
    integrated_autocorrelation_time,
    integrated_autocorrelation_time_matrix,
)

__all__ = [
    "TransitionDesign",
    "SimpleRandomWalk",
    "MetropolisHastingsWalk",
    "LazyWalk",
    "MaxDegreeWalk",
    "BidirectionalWalk",
    "run_walk",
    "WalkResult",
    "run_walk_batch",
    "run_nbrw_walk_batch",
    "BatchWalkResult",
    "has_batch_kernel",
    "KernelBackend",
    "capability_report",
    "default_backend_name",
    "get_backend",
    "require_backend",
    "target_weights_batch",
    "walk_attribute_matrix",
    "ShardedWalkEngine",
    "default_worker_count",
    "BurnInSampler",
    "LongRunSampler",
    "SampleBatch",
    "BFSSampler",
    "DFSSampler",
    "SnowballSampler",
    "FrontierSampler",
    "GewekeMonitor",
    "BatchGewekeResult",
    "BatchConvergenceReport",
    "geweke_batch",
    "diagnose_walk_batch",
    "GelmanRubinMonitor",
    "ParallelBurnInSampler",
    "psrf_matrix",
    "raftery_lewis",
    "RafteryLewisResult",
    "NonBacktrackingSampler",
    "run_nbrw_walk",
    "autocorrelation",
    "autocorrelation_matrix",
    "effective_sample_size",
    "effective_sample_size_matrix",
    "integrated_autocorrelation_time",
    "integrated_autocorrelation_time_matrix",
]
