import os
import time

import pytest

from likenet.ensemble import EnsembleConfig, run_to_files

DESK_SEED = 19
DESK_SAMPLES = 10_000
STRATEGIC_FRACTION = 0.001


def worker_count():
    return max(1, min(os.cpu_count() or 1, 8))


@pytest.fixture(scope="session")
def desk_config():
    return EnsembleConfig(sample_count=DESK_SAMPLES, master_seed=DESK_SEED)


@pytest.fixture(scope="session")
def desk_run(desk_config, tmp_path_factory):
    """The desk-scale ensemble shared by the acceptance criteria, written by
    likenet ensemble's own writer.

    Returns (records_path, elapsed_seconds).
    """
    start = time.time()
    out = tmp_path_factory.mktemp("desk")
    run_to_files(desk_config, out, workers=worker_count())
    return out / "records.jsonl", time.time() - start
