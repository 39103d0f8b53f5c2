import os

import numpy as np
import pytest
from hypothesis import settings

from omaslab import run_scenario
from omaslab.cli import build_bundle
from omaslab.demo import demo_scenario

DEMO_SEED = 11

# HYPOTHESIS_PROFILE=ci makes the property tests draw the same examples on
# every run; without it they draw fresh random examples each time
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def practical_scenario():
    return demo_scenario("practical", seed=DEMO_SEED)


@pytest.fixture(scope="session")
def asymptotic_scenario():
    return demo_scenario("asymptotic", seed=DEMO_SEED)


@pytest.fixture(scope="session")
def demo_matrices(practical_scenario):
    return practical_scenario.mode_matrices()


@pytest.fixture(scope="session")
def practical_signal(practical_scenario):
    return practical_scenario.resolve_signal(DEMO_SEED)


@pytest.fixture(scope="session")
def asymptotic_signal(asymptotic_scenario):
    return asymptotic_scenario.resolve_signal(DEMO_SEED)


@pytest.fixture(scope="session")
def practical_bundle(practical_scenario, practical_signal):
    return build_bundle(practical_scenario, practical_signal)


@pytest.fixture(scope="session")
def asymptotic_bundle(asymptotic_scenario, asymptotic_signal):
    return build_bundle(asymptotic_scenario, asymptotic_signal)


@pytest.fixture(scope="session")
def practical_run(practical_scenario, practical_bundle):
    return run_scenario(practical_scenario, seed=DEMO_SEED, bundle=practical_bundle)


@pytest.fixture(scope="session")
def asymptotic_run(asymptotic_scenario, asymptotic_bundle):
    return run_scenario(asymptotic_scenario, seed=DEMO_SEED, bundle=asymptotic_bundle)


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)
