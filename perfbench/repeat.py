"""Repeat a workload over several seeds and summarise each metric's spread.

Run a repeat set (one untraced run per seed, each in its own process)::

    python3 perfbench/repeat.py run --workload mixed-socket --seeds 1-10 \\
        --seconds 12 --out perfbench/results/set-a/mixed-socket.json

Compare two repeat sets of the same code, metric by metric, against the
bounds in ``BENCHMARK.json``::

    python3 perfbench/repeat.py compare perfbench/results/set-a \\
        perfbench/results/set-b

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
#: One run's own time limit; a run that exceeds it stops the set.
RUN_TIMEOUT_S = 300


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def run_set(workload: str, seeds: list[int], seconds: float, trace: int) -> dict:
    runs = []
    failures = []
    for seed in seeds:
        command = [
            sys.executable, str(RUN), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
        lines = done.stdout.strip().splitlines()
        if len(lines) < 2:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
        result = json.loads(lines[-1])
        provenance = json.loads(lines[-2])["provenance"]
        if done.returncode != 0:
            # A failed or mismatched operation: keep the run on record
            # (with its error output) but out of the summary.
            failures.append({
                "seed": seed, "exit": done.returncode, "result": result,
                "provenance": provenance, "stderr": done.stderr[-4000:],
            })
            print(f"{workload} seed {seed}: FAILED, exit {done.returncode}")
            continue
        runs.append({"seed": seed, "result": result, "provenance": provenance})
        print(
            f"{workload} seed {seed}: "
            + " ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in result["metrics"].items()
            ),
            flush=True,
        )
    names = list(runs[0]["result"]["metrics"])
    summary = {
        name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
        for name in names
    }
    return {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "seeds": seeds,
        "summary": summary,
        "runs": runs,
        "failures": failures,
    }


def print_summary(data: dict) -> None:
    bounds = _bounds() if data["trace"] == 0 else {}
    print(f"\n{data['workload']} ({len(data['runs'])} runs, "
          f"{len(data['failures'])} failed, {data['seconds']} s each)")
    for name, row in data["summary"].items():
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = (
                "ok" if row["spread"] < bound / 3
                else "within bound" if row["spread"] <= bound
                else "OVER BOUND"
            )
        print(
            f"  {name:<28s} median {row['median']:12.4f}  "
            f"q1 {row['q1']:12.4f}  q3 {row['q3']:12.4f}  "
            f"spread {row['spread']:7.2%}  "
            + (f"bound {bound:.0%} {verdict}" if bound is not None else "")
        )


def compare(first: pathlib.Path, second: pathlib.Path) -> int:
    """Second set's medians against the first's, within each bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = _bounds()
    worse_than_bound = 0
    for path in sorted(first.glob("*.json")):
        other = second / path.name
        if not other.exists():
            continue
        a = json.loads(path.read_text())["summary"]
        b = json.loads(other.read_text())["summary"]
        print(path.stem)
        for name, bound in bounds.items():
            if name not in a or name not in b:
                continue
            change = (b[name]["median"] - a[name]["median"]) / a[name]["median"]
            worse = -change if better[name] == "higher" else change
            flag = "ok" if worse <= bound else "WORSE THAN BOUND"
            worse_than_bound += flag != "ok"
            print(f"  {name:<28s} {change:+8.2%}  bound {bound:.0%}  {flag}")
    return 1 if worse_than_bound else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--seeds", default="1-10")
    run_p.add_argument("--seconds", type=float, required=True)
    run_p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run_p.add_argument("--out", type=pathlib.Path)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("first", type=pathlib.Path)
    cmp_p.add_argument("second", type=pathlib.Path)
    args = parser.parse_args()
    if args.command == "compare":
        return compare(args.first, args.second)
    data = run_set(args.workload, _seeds(args.seeds), args.seconds, args.trace)
    print_summary(data)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
