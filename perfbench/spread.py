"""Run a set of benchmark runs over several seeds and report their spread.

    python3 perfbench/spread.py --label a --seeds 0-9
    python3 perfbench/spread.py --label b --seeds 0-9 --compare a

Each run is the command from BENCHMARK.json with ``--trace 0``, one at a
time, on every workload it names. For every workload and end-to-end metric
this prints the median of the runs, the distance between the first and
third quartile as a share of the median, and that metric's bound; a spread
over the bound makes the set not steady. ``--compare`` also checks, against
an earlier set, that no median is worse by more than its bound and that
every deterministic metric repeats exactly seed by seed. Sets, with every
report line's value per run, are saved under
``.perfbench_out/sets/<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = ROOT / ".perfbench_out" / "sets"
RESULTS = ROOT / ".perfbench_out" / "results"
sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import TIMED  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(bench: dict, seed_list: list[int]) -> dict:
    results = {}
    for name in (w["name"] for w in bench["workloads"]):
        for seed in seed_list:
            argv = bench["command"] + ["--workload", name, "--seed", str(seed),
                                       "--seconds", str(bench["run_seconds"]),
                                       "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            record = RESULTS / f"{name}-seed{seed}-trace0.json"
            saved = json.loads(record.read_text())  # every report line's value
            doc["walls"], doc["report"] = saved["walls"], saved["values"]
            values = {k: v["value"] for k, v in doc["metrics"].items()}
            print(f"{name} seed {seed}: correct={doc['correct']} "
                  f"failed={doc['failed']}/{doc['attempted']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
            results.setdefault(name, {})[str(seed)] = doc
    return results


def summarize(bench: dict, results: dict, earlier: dict | None) -> bool:
    ok = True
    for name, runs in results.items():
        print(f"\n{name} ({len(runs)} runs)")
        walls = sorted(x for d in runs.values() for x in d["walls"])
        if len(walls) >= 11:
            print(f"  wall_s.tail p{100 * (len(walls) - 10) / len(walls):.0f} "
                  f"{walls[-11]:.6g} s over {len(walls)} untraced repetitions")
        bad = [s for s, d in runs.items() if not d["correct"] or d["failed"]]
        if bad:
            ok = False
            print(f"  incorrect or failed repetitions on seeds {bad}")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            column = [d["metrics"][key]["value"] for d in runs.values()]
            q1, med, q3 = statistics.quantiles(column, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            ok = ok and flag != "OVER"
            line = (f"  {key:28s} median {med:<12.6g} spread {spread:7.4f}"
                    f" bound {bound:<5g} {flag}")
            if earlier is not None and name in earlier:
                old = [d["metrics"][key]["value"] for d in earlier[name].values()]
                old_med = statistics.median(old)
                change = (med - old_med) / old_med if old_med else 0.0
                worse = change if metric["better"] == "lower" else -change
                line += f" vs earlier {change:+.4f}"
                if worse > bound:
                    ok = False
                    line += " WORSE"
                if key not in TIMED:
                    differ = [s for s, d in runs.items() if s in earlier[name]
                              and earlier[name][s]["metrics"][key]["value"]
                              != d["metrics"][key]["value"]]
                    if differ:
                        ok = False
                        line += f" NOT REPEATED on seeds {differ}"
            print(line)
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    p.add_argument("--compare", help="label of an earlier set")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    earlier = (json.loads((SETS / f"{args.compare}.json").read_text())
               if args.compare else None)
    results = run_set(bench, args.seeds)
    SETS.mkdir(parents=True, exist_ok=True)
    (SETS / f"{args.label}.json").write_text(json.dumps(results, indent=1))
    ok = summarize(bench, results, earlier)
    print("\nsteady" if ok else "\nNOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
