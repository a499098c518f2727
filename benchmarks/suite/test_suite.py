"""Self-test of the benchmark suite (collected by ``pytest benchmarks/``).

One ``--smoke`` run — a single short repetition per workload — must
produce exactly the workloads and metrics ``BENCHMARK.json`` declares,
pass every oracle, and show the harness itself is cheap.  It measures
nothing worth keeping.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.suite import stats
from benchmarks.suite.runner import ROOT, load_spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return load_spec()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("suite") / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "--smoke",
         "--out", str(out)],
        cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_spec_meets_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_reports_exactly_the_declared_names(spec, smoke):
    assert smoke["schema"] == "repro.bench/v1"
    assert sorted(smoke["workloads"]) == sorted(
        w["name"] for w in spec["workloads"]
    )
    for entry in smoke["workloads"].values():
        assert sorted(entry["end_to_end"]) == sorted(
            m["name"] for m in spec["end_to_end"]
        )
        assert sorted(entry["per_layer"]) == sorted(
            m["name"] for m in spec["per_layer"]
        )
        for value in entry["end_to_end"].values():
            assert value["unit"] and value["median"] > 0
        for value in entry["per_layer"].values():
            assert value["unit"]


def test_every_oracle_passed(smoke):
    for name, entry in smoke["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        assert entry["attempted"] >= 1


def test_layer_self_times_close_on_the_traced_latency(smoke):
    for name, entry in smoke["workloads"].items():
        layers = entry["per_layer"]
        assert layers["suite.closure_error_share"]["value"] < 1e-6, name
        assert layers["suite.unattributed_share"]["value"] < 0.10, name


def test_harness_is_cheap_next_to_a_read(smoke):
    layers = smoke["workloads"]["serve-read"]["per_layer"]
    harness_us = layers["suite.harness_us_per_op"]["value"]
    read_p50_us = layers["class.read_p50_ms"]["value"] * 1000.0
    assert harness_us < 0.05 * read_p50_us


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.MIN_BEYOND == 10
    samples = [float(i) for i in range(199)]
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(samples, 0.95)
    assert stats.percentile(samples + [199.0], 0.95) == 189.0
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([1.0] * 999, 0.99)
    assert stats.percentile([1.0, 2.0], 0.5, min_beyond=0) == 1.0
