"""The block seeding and the record-line template against NumPy and json.

seeding.spawned_seeds and seeding.generators reproduce SeedSequence and
default_rng without building either; ensemble._lines spells a record
line as json.JSONEncoder does. Each is checked against the original.
"""

import json
import math

import numpy as np
import pytest

from likenet import ensemble
from likenet.ensemble import (
    RECORD_FIELDS,
    STAR_STREAM,
    EnsembleConfig,
    encode_record,
    record_seeds,
    sample_rates,
)
from likenet.graphs import generate_ba, generate_star
from likenet.seeding import generators, spawned_seeds

from util import block_text

ENCODER = json.JSONEncoder(separators=(",", ":"))


@pytest.mark.parametrize("master_seed", [0, 19, 2**32 + 5, 2**64 - 1, 2**130 + 3])
@pytest.mark.parametrize("stream", [ensemble.MAIN_STREAM, STAR_STREAM])
def test_spawned_seeds_equal_seed_sequence(master_seed, stream):
    # one block whose indices straddle 2**32, where an index takes a second word
    indices = [0, 1, 7, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**64 - 1]
    first, second = spawned_seeds(master_seed, stream, indices)
    for index, pair in zip(indices, zip(first.tolist(), second.tolist())):
        expected = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, index))
        assert list(pair) == expected.generate_state(2, np.uint64).tolist(), index
    assert record_seeds(master_seed, 2**32, stream) == (first[5], second[5])


def test_generators_equal_default_rng():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds += np.random.default_rng(3).integers(0, 2**64, 40, dtype=np.uint64).tolist()
    # ints past 64 bits hash more than two words, as an int seed may
    wide = [2**64, 2**100 + 5, 2**160 - 1]
    for given in (seeds + wide, np.array(seeds, dtype=np.uint64)):
        for seed, rng in zip(given, generators(given)):
            expected = np.random.default_rng(int(seed))
            assert rng.bit_generator.state == expected.bit_generator.state, seed
            assert rng.random(3).tolist() == expected.random(3).tolist(), seed
            assert rng.exponential(2.5, 4).tolist() == expected.exponential(2.5, 4).tolist(), seed


@pytest.mark.parametrize("seed, error, message", [
    (-1, ValueError, "seed must be >= 0, got -1"),
    (1.5, TypeError, "seed must be an integer, got 1.5"),
    ("7", TypeError, "seed must be an integer, got '7'"),
])
def test_bad_seed_is_an_error(seed, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        generate_ba(10, 2, seed)
    with pytest.raises(error, match=f"^{message}$"):
        sample_rates(generate_star(4), 1.0, seed)


def test_blocks_build_no_seed_sequence(monkeypatch):
    config = EnsembleConfig(n=8, k=2, master_seed=5)
    text = block_text(config, 3, 20)

    def refuse(*args, **kwargs):
        raise AssertionError("a SeedSequence or default_rng was built")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert block_text(config, 3, 20) == text


def json_line(values):
    return ENCODER.encode(dict(zip(RECORD_FIELDS, values, strict=True)))


def test_encode_record_equals_json():
    record = ensemble.compute_record(EnsembleConfig(n=6, k=2, master_seed=4), 2)
    values = [record[name] for name in RECORD_FIELDS]
    assert encode_record(values) == json_line(values)
    for special in (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1.5e300, 5e-324):
        odd = list(values)
        odd[3], odd[7] = special, -special
        odd[9] = [[0, 1, special], [1, 0, 2.0], [3, 2, -special]]
        odd[10] = False
        assert encode_record(odd) == json_line(odd), special
    odd[9] = []
    assert encode_record(odd) == json_line(odd)


def test_block_lines_spell_non_finite_values_as_json(monkeypatch):
    # a block whose second record reads as disconnected: an infinite path length
    metric_columns = ensemble._metric_columns

    def disconnected(adj):
        histograms, stddevs, path_lengths, clusterings, connected = metric_columns(adj)
        path_lengths[1] = math.inf
        return histograms, stddevs, path_lengths, clusterings, connected

    monkeypatch.setattr(ensemble, "_metric_columns", disconnected)
    lines = block_text(EnsembleConfig(master_seed=9), 0, 3).splitlines()
    records = [json.loads(line) for line in lines]
    assert records[1]["mean_path_length"] == math.inf
    assert '"mean_path_length":Infinity,' in lines[1]
    assert lines == [json_line([r[name] for name in RECORD_FIELDS]) for r in records]
