import json
import os
import subprocess
import sys

import run
import workloads


def test_quick_run_prints_every_metric_for_every_workload():
    out = os.path.join(run.BENCH, "out", "smoke")
    proc = subprocess.run(
        [sys.executable, run.__file__, "--quick", "--out", out],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for workload in workloads.WORKLOADS:
        for name, unit, _, _ in run.END_TO_END:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
            assert f"  {name} " in proc.stdout
