"""WalkEstimateConfig validation and derived values."""

import pytest

from repro.core.config import WalkEstimateConfig
from repro.errors import ConfigurationError


def test_defaults_are_valid():
    config = WalkEstimateConfig()
    assert config.effective_walk_length == 2 * config.diameter_hint + 1


def test_explicit_walk_length_wins():
    config = WalkEstimateConfig(walk_length=7, diameter_hint=10)
    assert config.effective_walk_length == 7


def test_with_overrides_creates_new_validated_config():
    config = WalkEstimateConfig()
    other = config.with_overrides(crawl_hops=0, weighted_sampling=False)
    assert other.crawl_hops == 0
    assert config.crawl_hops != 0  # original untouched
    with pytest.raises(ConfigurationError):
        config.with_overrides(epsilon=2.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"walk_length": 0},
        {"diameter_hint": 0},
        {"crawl_hops": -1},
        {"epsilon": 0.0},
        {"epsilon": 1.5},
        {"backward_repetitions": 0},
        {"refine_repetitions": -1},
        {"scale_percentile": 0.0},
        {"scale_percentile": 100.0},
        {"calibration_walks": 0},
        {"max_attempts_per_sample": 0},
    ],
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        WalkEstimateConfig(**kwargs)


def test_config_is_frozen():
    config = WalkEstimateConfig()
    with pytest.raises(Exception):
        config.crawl_hops = 5  # type: ignore[misc]


class TestCrawlPipelineConfig:
    def test_defaults_are_valid(self):
        from repro.core.config import CrawlPipelineConfig

        config = CrawlPipelineConfig()
        assert config.concurrency == 4
        assert config.max_depth is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"concurrency": 0},
            {"batch_size": 0},
            {"rows_per_epoch": 0},
            {"max_depth": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        from repro.core.config import CrawlPipelineConfig

        with pytest.raises(ConfigurationError):
            CrawlPipelineConfig(**kwargs)

    def test_with_overrides_revalidates(self):
        from repro.core.config import CrawlPipelineConfig

        config = CrawlPipelineConfig().with_overrides(concurrency=8, max_depth=3)
        assert config.concurrency == 8 and config.max_depth == 3
        with pytest.raises(ConfigurationError):
            config.with_overrides(batch_size=-2)
