"""Golden SHA-256 checksums of the bundled configs that need no LAPACK call.

These four configs write CSVs from closed forms, the walk census and the
sampler alone, so their bytes do not depend on the BLAS thread count.
``reduce.csv`` prints the sampled entries' truncation and rescaling costs to
17 digits, so it also pins ``sample()`` byte for byte.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from wignerlab.cli_runner import ExperimentConfig, parse_config_text, run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "conditions.cfg": ("conditions.csv", "4a8ad23e446837bc2d02539caa7c0c02c3f8ff337fa80ffca51e020d831a6baa"),
    "conditions_heavy.cfg": ("conditions.csv", "7f7e956b7352e2d412700896ba28ad85dbf4d145780dae2749b516138678cdb6"),
    "reduce.cfg": ("reduce.csv", "295521e95e418b95f0f69355701f8499464276793ac7c1b8f51ee744735eea9c"),
    "walks.cfg": ("walks.csv", "2b269424e28dfa6f32cd4b957b81c0b50c196fbcbbe7172cd4c115cdd74058bf"),
}


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("cfg", sorted(GOLDEN))
def test_bundled_config_checksum(cfg, threads, tmp_path):
    config = ExperimentConfig.from_mapping(parse_config_text((CONFIG_DIR / cfg).read_text()))
    config = replace(config, out_dir=str(tmp_path), threads=threads)
    manifest = run(config)
    name, expected = GOLDEN[cfg]
    assert dict(manifest.checksums) == {name: expected}
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected
