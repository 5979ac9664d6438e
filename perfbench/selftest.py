"""Self-test of the benchmark at the tiny size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with ``--tiny`` (every curve at 96
vertices) and checks that each run passes its correctness checks and
prints exactly the metrics ``BENCHMARK.json`` declares, each with its unit.
Then checks that a directory holding only ``BENCHMARK.json`` and the
benchmark fails without printing a result.  Exits 0 when all checks pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_result(declared, proc) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct {result['correct']}, failed {result['failed']}: "
                        + proc.stdout[-800:])
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            proc = run(ROOT, "--workload", workload["name"], "--seed", "7",
                       "--seconds", "2", "--trace", trace, "--tiny")
            problems = check_result(declared[trace], proc)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload['name']} trace {trace}")
            for problem in problems:
                print(f"     {problem}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "7",
               "--seconds", "2", "--trace", "0")
    printed = proc.stdout.strip().splitlines()
    ok = proc.returncode != 0 and not (printed and printed[-1].startswith("{"))
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} without the package: exit code {proc.returncode}")
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
