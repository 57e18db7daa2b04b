"""The free-graph ``batch`` and ``sharded`` rounds' output, pinned to literals.

The parity pins compare the batch engines with their references at the
same seed: the scalar walker at K = 1, the ``python`` kernel twin, the
per-depth backward loop.  Nothing there notices if the engine and its
reference drift together, or if a wide batch's block draw spends the
generator's 32-bit values differently from NumPy's own call.  These
rounds run :func:`repro.core.estimate` at K = 8,192 walks, so every
forward step (both shards of the two-shard plan included) and every
backward level draws its bounded integers as one block
(:func:`repro.rng.bounded_integers`), and compare what each round leaves
behind with values recorded before the block draw last changed: the
candidates, every estimate to the last bit, the accepted mask and the
caller's generator end state.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig, estimate
from repro.graphs.generators import barabasi_albert_graph
from repro.walks.parallel import InlineExecutor

K_WALKS = 8192

WALK = WalkEstimateConfig(
    walk_length=6,
    backward_repetitions=2,
    refine_repetitions=0,
    calibration_walks=15,
)

DESIGNS = {
    "srw": "srw",
    "mhrw": "mhrw",
    "lazy-srw": {"name": "lazy", "laziness": 0.5, "inner": "srw"},
    "maxdeg": {"name": "maxdeg", "max_degree": 200},
}

SEEDS = (5, 61)


@pytest.fixture(scope="module")
def csr():
    return barabasi_albert_graph(2000, 4, seed=13).relabeled().compile()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def round_output(csr, design, backend, seed):
    """What one K-walk round leaves behind, as short digests."""
    spec = EstimationJobSpec(
        design=DESIGNS[design],
        samples=K_WALKS,
        walk=WALK,
        engine=EngineConfig(backend=backend),
    )
    rng = np.random.default_rng(seed)
    if backend == "batch":
        result = estimate(spec, graph=csr, seed=rng)
    else:
        result = estimate(spec, engine=InlineExecutor(csr, n_workers=2), seed=rng)
    raw = result.raw
    estimates = ",".join(float(value).hex() for value in raw.estimates)
    return {
        "candidates": digest(raw.candidates.astype("<i8").tobytes()),
        "estimates": digest(estimates.encode()),
        "accepted": digest(np.packbits(raw.accepted).tobytes()),
        "rng": digest(json.dumps(rng.bit_generator.state, sort_keys=True).encode()),
    }


#: What each round left behind when these values were recorded.
PINNED = {
    ("srw", "batch", 5): {
        "candidates": "0f043766ec582049",
        "estimates": "cb60e304aa1659dc",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "aeb2e15669a24ed0",
    },
    ("srw", "batch", 61): {
        "candidates": "64c27e0eb9da0485",
        "estimates": "7ec995feaa68c855",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "9e2fb75e7da3d925",
    },
    ("srw", "sharded", 5): {
        "candidates": "7ac350cdabce72b9",
        "estimates": "e83c0574dbe70db0",
        "accepted": "e5615d210bcccc9a",
        "rng": "cdcbdf7873c6e640",
    },
    ("srw", "sharded", 61): {
        "candidates": "a64c8a862fac9e9c",
        "estimates": "418ce39f217d0ee3",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "0116193b803b8446",
    },
    ("mhrw", "batch", 5): {
        "candidates": "17981e43e7053f46",
        "estimates": "08bdaecd108b1629",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "aad35f116987474c",
    },
    ("mhrw", "batch", 61): {
        "candidates": "4745af17ed683a7c",
        "estimates": "aefd0e3a17381a61",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "699bd4b30dd6b10c",
    },
    ("mhrw", "sharded", 5): {
        "candidates": "c394315f7b0d921d",
        "estimates": "56f2e316629ae7f1",
        "accepted": "df47b9eec05d8cc3",
        "rng": "cdcbdf7873c6e640",
    },
    ("mhrw", "sharded", 61): {
        "candidates": "d72b444568a01864",
        "estimates": "c9e35c46f404633b",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "0116193b803b8446",
    },
    ("lazy-srw", "batch", 5): {
        "candidates": "fdbad4d76fb7e339",
        "estimates": "050a61a75f60fa5e",
        "accepted": "8bfb4e7fa5e22f50",
        "rng": "3507a721730965b2",
    },
    ("lazy-srw", "batch", 61): {
        "candidates": "906dcbd4d41737ea",
        "estimates": "77c65e8124ba5773",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "b22183778f3cbea5",
    },
    ("lazy-srw", "sharded", 5): {
        "candidates": "049addefb526cd22",
        "estimates": "8ef4f7fe7f251606",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "cdcbdf7873c6e640",
    },
    ("lazy-srw", "sharded", 61): {
        "candidates": "72cdda072fd62bb5",
        "estimates": "dfec44f17aee63ee",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "0116193b803b8446",
    },
    ("maxdeg", "batch", 5): {
        "candidates": "30c5ea2c8bb561aa",
        "estimates": "ff34791aa4c2fb2d",
        "accepted": "7f19406f1ad8fffd",
        "rng": "a7069126fcf86f0c",
    },
    ("maxdeg", "batch", 61): {
        "candidates": "c1c5f8ada70e30bb",
        "estimates": "2887f229fd6f404a",
        "accepted": "5f4ecdb7b71c3e40",
        "rng": "463ac5910cf425e9",
    },
    ("maxdeg", "sharded", 5): {
        "candidates": "98fb03408fefd5d8",
        "estimates": "30dc01f83042b029",
        "accepted": "6efbd0eb180cc500",
        "rng": "cdcbdf7873c6e640",
    },
    ("maxdeg", "sharded", 61): {
        "candidates": "f40b6bd7d607e3d9",
        "estimates": "cf0e7a67e92a3fd6",
        "accepted": "3b602901f1d04f43",
        "rng": "0116193b803b8446",
    },
}


@pytest.mark.parametrize(
    "design, backend, seed",
    list(PINNED),
    ids=[f"{design}-{backend}-{seed}" for design, backend, seed in PINNED],
)
def test_round_matches_its_pin(csr, design, backend, seed):
    assert round_output(csr, design, backend, seed) == PINNED[design, backend, seed]
