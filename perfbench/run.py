"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 20 --trace 0

Generates the seeded corpus, prepares a warm cache where the workload
needs one, times set-up in separate fresh processes, then runs the
measured workload process (workload.py) with the checkout's src/ on
PYTHONPATH and the BLAS thread variables removed, so the library's own
threading choice is what gets measured. Prints the environment, the
correctness gates and every metric with its unit and sample count; the
last line of standard output is the result as one JSON object.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see layers.py). Everything the run writes stays under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6  # plus one dropped warm-up probe
DEADLINE_S = 170.0


def child_env() -> tuple[dict, list[str]]:
    env = dict(os.environ)
    cleared = [v for v in BLAS_VARS if v in env]
    for v in BLAS_VARS:
        env.pop(v, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, cleared


def run_child(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    return subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )


def declared_metrics(trace: int) -> dict[str, str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    bench = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOAD_CORPUS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "agsc" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'agsc'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    env, cleared = child_env()
    try:
        return _run(args, run_dir, env, cleared, deadline)
    except subprocess.CalledProcessError as e:
        print(f"perfbench: {e.cmd[2]} {e.cmd[3]} failed with exit code {e.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: {e.cmd[2]} {e.cmd[3]} ran out of time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: Path, env: dict, cleared: list[str], deadline: float) -> int:
    corpus = run_dir / "corpus.jsonl"
    gen.write_jsonl(gen.generate(args.seed, gen.CORPORA[gen.WORKLOAD_CORPUS[args.workload]]), corpus)
    common = ["--workload", args.workload, "--corpus", str(corpus), "--run-dir", str(run_dir)]

    cache_dir = run_dir / "cache" / "setup"
    if args.workload == "cached_rerun":
        # The earlier agsc run whose cache the timed run reuses; not timed,
        # so BLAS may be pinned to keep it short.
        cache_dir = run_dir / "warm_cache"
        run_child(["prep", *common, "--cache-dir", str(cache_dir)],
                  {**env, "OPENBLAS_NUM_THREADS": "1"}, deadline)

    def probe_setup(i: int) -> float:
        probe_cache = cache_dir if args.workload == "cached_rerun" else run_dir / "cache" / f"probe{i}"
        out = run_child(["setup", *common, "--cache-dir", str(probe_cache)], env, deadline)
        return json.loads(out.stdout.splitlines()[-1])["setup_s"]

    setup_samples = []
    if not args.trace:
        # The first probe compiles bytecode and fills the page cache; it is dropped.
        probe_setup(0)
        setup_samples += [probe_setup(i) for i in range(1, SETUP_PROBES // 2 + 1)]

    result_path = run_dir / "result.json"
    spans = OUT / f"spans-{args.workload}.jsonl"
    measure = ["measure", *common, "--cache-dir", str(cache_dir), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(result_path), "--cleared", ",".join(cleared)]
    if args.trace:
        measure += ["--spans", str(spans)]
    run_child(measure, env, deadline)
    result = json.loads(result_path.read_text(encoding="utf-8"))

    metrics = result["metrics"]
    if not args.trace:
        # Half the probes run after the measured process, so a slow spell
        # of the host during the run does not decide the figure alone.
        setup_samples += [probe_setup(i) for i in range(SETUP_PROBES // 2 + 1, SETUP_PROBES + 1)]
        setup_samples.append(metrics["setup_s"]["value"])
        # Set-up is fixed work and noise only adds to it: report the fastest.
        metrics["setup_s"] = {"value": min(setup_samples), "unit": "s", "samples": len(setup_samples)}

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, verdict in result["gates"].items():
        print(f"gate {name}: {verdict}")
    for name, m in metrics.items():
        n = f" (n={m['samples']})" if "samples" in m else ""
        print(f"metric {name} = {m['value']:.6g} {m['unit']}{n}")
    for name in result.get("missing", []):
        print(f"metric {name} = missing (its hook target is gone)")
    for name, value in result["extra"].items():
        print(f"info {name}: {json.dumps(value)}")
    if args.trace:
        print(f"info spans written to {spans.relative_to(ROOT)}")

    declared = declared_metrics(args.trace)
    if declared is not None:
        wrong = sorted(n for n, m in metrics.items() if declared.get(n) != m["unit"])
        absent = sorted(set(declared) - set(metrics) - set(result.get("missing", [])))
        if wrong or absent:
            print(f"perfbench: metrics disagree with BENCHMARK.json: {wrong + absent}", file=sys.stderr)
            return 1

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
