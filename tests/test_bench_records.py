"""Every committed BENCH_<n>.json is a whole perfbench record of one commit
in which every workload ran correct."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(w["name"] for w in SPEC["workloads"])
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_its_commit_and_every_workload_ran_correct(path):
    bench = json.loads(path.read_text())
    assert path.name == f"BENCH_{bench['number']}.json"
    assert re.fullmatch(r"[0-9a-f]{40}", bench["commit"])
    assert bench["host"]["cpu"] and bench["host"]["nproc"]
    assert sorted(bench["workloads"]) == WORKLOADS
    for name, result in bench["workloads"].items():
        assert result["workload"] == name
        assert result["seed"] == bench["seed"]
        assert result["env"]["git_sha"] == bench["commit"], name
        assert result["correct"] is True and result["failed"] == 0, name
