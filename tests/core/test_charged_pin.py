"""The ``charged`` engine's output, pinned to literals.

``TestChargedParity`` (``test_dispatch.py``) compares two routes through
the same sampler; nothing there notices if that sampler itself changes
what it draws.  These campaigns run the ``charged`` engine, the scalar
WALK-ESTIMATE sampler over a charged API, with ``perfbench``'s
``charged`` walk settings on a small BA graph, and compare everything a
campaign leaves behind with values recorded before the row store and
the WS-BW step were last optimised: accepted nodes and weights, every
record's estimated probability to the last bit, the query cost, raw
calls, attempts and walk steps, the generator's end state, and the row
store's checkpoint arrays.  A change that reorders the store's rows or
spends one random draw differently fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import EstimationJobSpec, WalkEstimateConfig, WalkEstimateSampler
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI

#: ``perfbench``'s ``charged`` walk settings.
CHARGED_WALK = WalkEstimateConfig(
    crawl_hops=1,
    diameter_hint=4,
    backward_repetitions=6,
    calibration_walks=10,
)

DESIGNS = {
    "srw": "srw",
    "mhrw": "mhrw",
    "lazy-srw": {"name": "lazy", "laziness": 0.5, "inner": "srw"},
    "maxdeg": {"name": "maxdeg", "max_degree": 80},
}

SEEDS = (3, 29)


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(300, 4, seed=11).relabeled()


def digest(parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part)
    return hasher.hexdigest()[:16]


def campaign(hidden, design, seed):
    """Everything one 10-sample charged campaign leaves behind."""
    api = SocialNetworkAPI(hidden)
    rng = np.random.default_rng(seed)
    sampler = WalkEstimateSampler(
        EstimationJobSpec(design=DESIGNS[design]).build_design(), CHARGED_WALK
    )
    batch = sampler.sample(api, 0, 10, seed=rng)
    rows = api.discovered.snapshot_rows()
    return {
        "nodes": [int(node) for node in batch.nodes],
        "weights": [float(weight) for weight in batch.target_weights],
        "estimates": [
            record.estimated_probability.hex() for record in sampler.last_report.records
        ],
        "query_cost": batch.query_cost,
        "raw_calls": api.raw_calls,
        "attempts": batch.attempts,
        "walk_steps": batch.walk_steps,
        "rng": digest([json.dumps(rng.bit_generator.state, sort_keys=True).encode()]),
        "rows": digest(
            key.encode() + rows[key].astype("<i8").tobytes()
            for key in ("ids", "lengths", "flat", "marked")
        ),
    }


#: What each campaign left behind when these values were recorded.
PINNED = {
    ("srw", 3): {
        "nodes": [120, 186, 159, 42, 5, 6, 57, 23, 5, 266],
        "weights": [8.0, 5.0, 4.0, 19.0, 47.0, 42.0, 13.0, 16.0, 47.0, 4.0],
        "estimates": [
            "0x1.5312352cbb937p-10",
            "0x1.393476d5a63dep-5",
            "0x1.286de7973c7bdp-11",
            "0x1.24e05fade0279p-10",
            "0x0.0p+0",
            "0x1.4879ff1f83431p-5",
            "0x1.9c775c7057428p-7",
            "0x1.3d30bcf98e5bfp-11",
            "0x1.9b0c695fd66cdp-10",
            "0x1.40c17f3bec273p-9",
            "0x1.68e870e24c5a3p-7",
            "0x1.25946d061649ep-13",
        ],
        "query_cost": 278,
        "raw_calls": 278,
        "attempts": 12,
        "walk_steps": 1254,
        "rng": "c5a4f1773f4200ba",
        "rows": "1ce56de6bce1a382",
    },
    ("srw", 29): {
        "nodes": [5, 3, 263, 18, 59, 197, 225, 183, 18, 119],
        "weights": [47.0, 22.0, 5.0, 15.0, 10.0, 5.0, 5.0, 4.0, 15.0, 7.0],
        "estimates": [
            "0x0.0p+0",
            "0x1.188e7d68b7d13p-7",
            "0x1.188e7d68b7d13p-7",
            "0x1.fa554aaffafd0p-7",
            "0x1.d207f625b6357p-9",
            "0x1.6ee263431e97cp-11",
            "0x1.bad94b46844b7p-10",
            "0x1.bf9b628729904p-12",
            "0x1.d96faa30468d1p-10",
            "0x1.a89e85457c079p-11",
            "0x1.0dd0e6c51e86ep-9",
            "0x1.508ec615438eap-13",
            "0x1.bad94b46844b7p-10",
            "0x1.0606146a3db76p-11",
        ],
        "query_cost": 282,
        "raw_calls": 282,
        "attempts": 14,
        "walk_steps": 1480,
        "rng": "1de6a03e3cbc3928",
        "rows": "a3c50b5f454a9ee0",
    },
    ("mhrw", 3): {
        "nodes": [209, 163, 17, 247, 101, 170, 145, 193, 118, 18],
        "weights": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        "estimates": [
            "0x1.e86a94054da7bp-13",
            "0x1.97ee688699f00p-11",
            "0x1.af8c034be09c8p-11",
            "0x1.1761c8f92361cp-12",
            "0x1.3e1aeef519097p-13",
            "0x1.0205bb971d9a1p-9",
            "0x1.e9d4de9f087d9p-16",
            "0x1.12cf18165fd91p-13",
            "0x1.8e643d049544fp-6",
            "0x1.64509358fb951p-9",
            "0x1.14e8059d66c44p-8",
            "0x1.0650535d2aa6cp-7",
            "0x1.0bab97f1ec833p-15",
            "0x1.83f0391b436b3p-8",
            "0x1.c7e41ddbe6034p-10",
            "0x1.0911a19fdaf84p-9",
            "0x1.4324a3c19cc62p-8",
            "0x1.e20cdfa14d8a0p-15",
            "0x1.7f5d02ca2a1e4p-15",
            "0x1.b4a9136028215p-10",
            "0x1.693fc8151ddf4p-8",
            "0x1.f5e61721ad23bp-10",
            "0x1.c4e15cc53e198p-11",
            "0x1.67dd16fdaa73dp-12",
            "0x1.4adfe62fe0000p-9",
            "0x1.03271c321cd25p-12",
            "0x1.1dd82ac0d717bp-17",
            "0x1.d73a3380d0d50p-8",
            "0x1.4baf9a7aeb3ddp-12",
            "0x1.8262856ca8aa6p-7",
            "0x1.2c37fc1e4e740p-12",
        ],
        "query_cost": 299,
        "raw_calls": 299,
        "attempts": 31,
        "walk_steps": 2993,
        "rng": "be704976b342982c",
        "rows": "39dcf966670e9136",
    },
    ("mhrw", 29): {
        "nodes": [268, 162, 2, 296, 102, 231, 81, 86, 83, 144],
        "weights": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        "estimates": [
            "0x1.b5cdd1c563560p-12",
            "0x0.0p+0",
            "0x1.2a2659127b32fp-11",
            "0x1.b0a69438e3bfbp-15",
            "0x1.22e63d4dde30fp-10",
            "0x1.2a2659127b32fp-11",
            "0x0.0p+0",
            "0x1.b8ae8e582d9e3p-11",
            "0x1.fa0e69c4b8172p-7",
            "0x1.4c8a3039cf807p-10",
            "0x1.053d7b8ee6474p-11",
            "0x1.a4a00338766adp-9",
            "0x1.a5b3e35ae7678p-14",
            "0x1.c151a3378fba9p-13",
            "0x1.1aa1cc3e4558dp-10",
            "0x1.0ce6933b44437p-13",
        ],
        "query_cost": 297,
        "raw_calls": 297,
        "attempts": 16,
        "walk_steps": 1706,
        "rng": "90e8d618a7c1e676",
        "rows": "abe5fb00d8a5d426",
    },
    ("lazy-srw", 3): {
        "nodes": [0, 6, 5, 43, 0, 37, 223, 139, 33, 272],
        "weights": [70.0, 42.0, 47.0, 9.0, 70.0, 24.0, 5.0, 6.0, 14.0, 4.0],
        "estimates": [
            "0x1.6789ec9cf0f0fp-11",
            "0x1.ee2205775953cp-10",
            "0x1.233d5bf286516p-8",
            "0x1.882c957aeff43p-10",
            "0x1.7ad16e77fcae2p-9",
            "0x1.4ff0af94b8a92p-9",
            "0x1.90769e9dac33dp-17",
            "0x1.3a98af0952d2dp-11",
            "0x1.1fd53d3bc0acfp-17",
            "0x1.058851905871ap-18",
            "0x1.76810b683932dp-13",
            "0x1.e0556ee734c1bp-11",
            "0x1.6f2b23ad01580p-11",
            "0x1.196670045daafp-10",
            "0x1.2b868a3ec0217p-14",
            "0x1.c05e5e33d2831p-12",
            "0x1.885a9c9b97f8cp-13",
            "0x1.26fa1218de34ep-15",
        ],
        "query_cost": 280,
        "raw_calls": 280,
        "attempts": 18,
        "walk_steps": 1788,
        "rng": "57de6a92cd2dc0a0",
        "rows": "b5f3da0870e6f770",
    },
    ("lazy-srw", 29): {
        "nodes": [33, 159, 277, 201, 0, 11, 49, 9, 7, 188],
        "weights": [14.0, 4.0, 4.0, 6.0, 70.0, 33.0, 9.0, 37.0, 30.0, 5.0],
        "estimates": [
            "0x1.c71c71c71c71cp-15",
            "0x1.1f584c6c88374p-10",
            "0x1.5bced9db61cabp-11",
            "0x1.62dc3ce17293dp-12",
            "0x1.7e8247edebe79p-11",
            "0x1.d7604efaec0ddp-8",
            "0x1.1b8831e77b232p-11",
            "0x1.73d5804818293p-11",
            "0x1.1aa31fd40ad0fp-11",
            "0x1.ebec6e000c5cdp-9",
            "0x1.a2f0c71bf1cc4p-12",
            "0x1.19e82742d9881p-14",
            "0x1.644384755d013p-12",
            "0x1.2233ff7a6755ap-13",
            "0x1.a5a97ef279accp-17",
            "0x1.01d3e197dfa41p-7",
            "0x1.e7e1f456a5df8p-14",
            "0x1.298e3d1c9eb68p-16",
            "0x1.0c8924d7c3bfbp-12",
            "0x1.b8aba8236346cp-11",
            "0x1.2e799aeb857d0p-12",
            "0x1.0beeead2033c7p-13",
            "0x1.422b17a5b75a7p-11",
            "0x1.9b309b66a5eb1p-7",
            "0x1.b4ffec5f3c0e8p-9",
            "0x1.f88ce99ae5f51p-9",
            "0x1.31afcaf76b796p-10",
            "0x1.1b8831e77b232p-11",
            "0x1.2360330f7419fp-13",
            "0x1.cc817136e8498p-14",
            "0x1.9491d21534560p-13",
            "0x1.eeca34c40d065p-13",
            "0x1.5ecd37fa2fef3p-14",
            "0x1.8d2168cb65bafp-13",
            "0x1.e6898671d6c5bp-10",
            "0x1.3a0e7167b821dp-12",
            "0x1.7735a0055a999p-9",
            "0x1.55da00c6f3f70p-7",
            "0x1.99efcad4424dcp-13",
            "0x1.2233ff7a6755ap-13",
        ],
        "query_cost": 292,
        "raw_calls": 292,
        "attempts": 40,
        "walk_steps": 3626,
        "rng": "d83783bca89720c9",
        "rows": "e53b15364ce1dcfc",
    },
    ("maxdeg", 3): {
        "nodes": [282, 269, 271, 32, 10, 100, 274, 83, 3, 237],
        "weights": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        "estimates": [
            "0x1.96e21abcc4c23p-22",
            "0x1.5a7100f41bc63p-23",
            "0x1.9176fee8e3d9fp-15",
            "0x0.0p+0",
            "0x1.b28b693b691e3p-30",
            "0x1.c6e58636a17a9p-17",
            "0x1.3376f0cfe1547p-22",
            "0x1.c6e58636a17a9p-17",
            "0x1.d324e056c259fp-20",
            "0x1.ee52560418939p-19",
            "0x1.06799780baa5bp-27",
            "0x1.6ec4070c9fdcfp-21",
            "0x1.155894c5e4145p-18",
            "0x1.64a353a2bd7c5p-14",
            "0x1.a45f58d605051p-26",
            "0x1.5cb7cf0ec66c9p-23",
            "0x1.3be1b91abe478p-25",
            "0x1.41650f59af741p-15",
            "0x1.a19b48c2a4550p-16",
            "0x1.56722eec26499p-14",
            "0x1.787b2238c8571p-24",
        ],
        "query_cost": 280,
        "raw_calls": 280,
        "attempts": 21,
        "walk_steps": 2103,
        "rng": "dafda54ca1c67103",
        "rows": "18abd88ec843f0da",
    },
    ("maxdeg", 29): {
        "nodes": [143, 63, 20, 77, 271, 234, 284, 136, 60, 77],
        "weights": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        "estimates": [
            "0x1.1582fac6b0286p-27",
            "0x1.530e2f6dabd55p-23",
            "0x1.ab1d57ce9e088p-24",
            "0x1.ec572f20ffd4ep-19",
            "0x1.864f7a10bd3cfp-26",
            "0x1.b206f8d3cd02bp-21",
            "0x1.045d7b3e9e041p-27",
            "0x1.9e5db918bae25p-25",
            "0x1.a4211839c3d7bp-32",
            "0x1.1f8a7a41e57dcp-25",
            "0x1.e40aa64c2f83cp-23",
            "0x1.3dd4717f03442p-19",
            "0x1.c526654a3761bp-21",
            "0x1.6f962d2210e60p-22",
            "0x1.9fc751bc36b8bp-4",
            "0x1.7a0d4268a7abdp-20",
            "0x1.bf0351c417f29p-29",
            "0x1.99314faba2388p-14",
            "0x1.5e10d844d013fp-24",
            "0x1.e45986bd48f68p-21",
            "0x1.6f962d2210e60p-22",
            "0x1.3f85adea22621p-21",
            "0x1.0be7e2751976bp-27",
            "0x1.d8835463848a0p-19",
            "0x1.49744d59d0004p-25",
            "0x1.407157272ae73p-13",
            "0x1.d4bab57313f40p-21",
            "0x1.a4211839c3d7bp-32",
        ],
        "query_cost": 292,
        "raw_calls": 292,
        "attempts": 28,
        "walk_steps": 2702,
        "rng": "9eca201ff31bea68",
        "rows": "4fc4b9401d02811d",
    },
}


@pytest.mark.parametrize(
    "design, seed", list(PINNED), ids=[f"{design}-{seed}" for design, seed in PINNED]
)
def test_charged_campaign_matches_its_pin(hidden, design, seed):
    assert campaign(hidden, design, seed) == PINNED[design, seed]
