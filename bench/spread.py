"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 0-9
    python3 bench/spread.py --workloads adaptive-toy --seeds 0-4 --trace 1

Each (workload, seed) is one ``run.py`` process, run one after another.
For every end-to-end metric, and for the quality figures that the runs
print beside them, the table gives the median over seeds, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread
``(q3 - q1) / median``.  End-to-end metrics are marked ``ok`` when the
spread is below a third of their bound in ``BENCHMARK.json``.  With
``--trace 1`` the per-layer metrics are tabulated instead, without bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(
        (BENCH / "out" / f"BENCH_{workload}_seed{seed}_trace{trace}.json").read_text()
    )
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update(report["quality"])
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    return {"result": result, "values": values, "units": units}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    seeds = parse_seeds(args.seeds)
    all_ok = True
    summary = {}
    for workload in args.workloads.split(","):
        runs, units = [], {}
        for seed in seeds:
            run = one_run(workload, seed, args.seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
            all_ok &= res["correct"]
            runs.append(run["values"])
            units = run["units"]
        print(f"\n{workload}: {len(seeds)} seeds, {args.seconds:g} s each")
        print(f"{'metric':36} {'unit':>7} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for name in runs[0]:
            med, q1, q3, spr = spread([r[name] for r in runs])
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                ok = spr < bound / 3
                all_ok &= ok
                flag = "ok" if ok else "WIDE"
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spr}
            print(f"{name:36} {units.get(name, '-'):>7} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spr:8.4f} {'' if bound is None else bound:>6} {flag}")
        print()
    out = BENCH / "out" / f"spread_trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out.relative_to(ROOT)}; all ok: {all_ok}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
