"""Golden SHA-256 checksums of every bundled config's CSVs.

Four configs write CSVs from closed forms, the walk census and the sampler
alone, so their bytes do not depend on the BLAS thread count.
``reduce.csv`` prints the sampled entries' truncation and rescaling costs to
17 digits, so it also pins ``sample()`` byte for byte.  The other four call
``eigvalsh`` at sizes below 512 only, where the trial fan-out runs OpenBLAS
on one thread, so their bytes do not depend on the BLAS thread count either:
every config runs with the process's OpenBLAS count at 1 and at 2.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from wignerlab.cli_runner import ExperimentConfig, parse_config_text, run
from wignerlab.hermitian_core import _openblas_thread_calls

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "concentration.cfg": {
        "concentration.csv": "f4bb3b3408da455a7d27d1eb67c6b1e4ccceb37d602b11dabfd5ccb7240b0393",
    },
    "conditions.cfg": {"conditions.csv": "4a8ad23e446837bc2d02539caa7c0c02c3f8ff337fa80ffca51e020d831a6baa"},
    "conditions_heavy.cfg": {"conditions.csv": "7f7e956b7352e2d412700896ba28ad85dbf4d145780dae2749b516138678cdb6"},
    "moments.cfg": {"moments.csv": "2418ca31af70f88302d26f4ae8cd17c78ddb0c8acd66e0a7cc3f7df9170faaa0"},
    "reduce.cfg": {"reduce.csv": "295521e95e418b95f0f69355701f8499464276793ac7c1b8f51ee744735eea9c"},
    "simulate.cfg": {"simulate.csv": "4ffec1053f7b9111a573c2bb02bc0c1cbcf9c2fd6c2fa0825da76dce384879ee"},
    "stieltjes.cfg": {
        "stieltjes.csv": "086032087c87bf1a747a1339396717bb6ce9cb7dcd32a2db8db0d24ea5b90ba5",
        "density_n64.csv": "6135fcf5a45333ff2edd9741b19a0bb3be048b253dd752219ee1f9490ed0fe4a",
        "density_n256.csv": "595b20d5b55804329dc0323f2403c176d6f6814c83c4f6e77afb11477163c812",
    },
    "walks.cfg": {"walks.csv": "2b269424e28dfa6f32cd4b957b81c0b50c196fbcbbe7172cd4c115cdd74058bf"},
}


def _run_with_blas_threads(config: ExperimentConfig, count: int | None):
    """``run(config)`` with the process's OpenBLAS thread count at ``count``, restored after.

    ``count`` None runs under the BLAS as it is.
    """
    if count is None:
        return run(config)
    get, put = _openblas_thread_calls()
    old = get()
    put(count)
    try:
        manifest = run(config)
        assert dict(manifest.machine)["blas_runtime_threads"] == get()
        return manifest
    finally:
        put(old)


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("cfg", sorted(GOLDEN))
def test_bundled_config_checksum(cfg, threads, tmp_path):
    config = ExperimentConfig.from_mapping(parse_config_text((CONFIG_DIR / cfg).read_text()))
    blas_counts = (1, 2) if _openblas_thread_calls() is not None else (None,)
    for count in blas_counts:
        out = tmp_path / f"blas{count}"
        manifest = _run_with_blas_threads(replace(config, out_dir=str(out), threads=threads), count)
        assert dict(manifest.checksums) == GOLDEN[cfg], count
        for name, expected in GOLDEN[cfg].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, (count, name)
