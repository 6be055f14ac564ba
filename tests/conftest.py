import os
import signal
import time

import pytest

from likenet.ensemble import EnsembleConfig, run_to_files

DESK_SEED = 19
DESK_SAMPLES = 10_000
STRATEGIC_FRACTION = 0.001


@pytest.fixture(autouse=True)
def sigterm_handler_kept():
    """Fail a test that leaves the process's SIGTERM handler other than it
    found it: a handler left behind changes how every later test, and each
    process it forks, ends on SIGTERM."""
    found = signal.getsignal(signal.SIGTERM)
    yield
    left = signal.getsignal(signal.SIGTERM)
    if left != found:
        signal.signal(signal.SIGTERM, found)
        pytest.fail(f"the SIGTERM handler was left as {left!r}, not {found!r}")


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
