#!/usr/bin/env python3
"""The repo's one benchmark: six workloads, end to end and layer by layer.

    python3 bench/run.py                       # every workload, both passes
    python3 bench/run.py --workload NAME       # one workload, both passes
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare A.json B.json

With ``--trace`` one pass of one workload runs and the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): ``--trace 0`` measures the end-to-end metrics with nothing
attached, ``--trace 1`` the per-layer ones (traced run, layer drivers,
counters).  Without ``--trace`` both passes run for every selected workload
and ``bench/out/results.json`` is written, which is what ``--compare`` reads.

Load is a closed loop of one client: the system is a deterministic batch
simulator, so one run follows another and nothing is concurrent except the
two pool workers in the per-layer pass of ``population_grid``.  Every
measurement happens in
a fresh child process (``bench/child.py``); this file only spawns, times
set-up, aggregates and prints.  Metric names, units and bounds come from
``BENCHMARK.json``; see ``bench/README.md`` for what each one means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

from workloads import BY_NAME, SCALE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Fresh measuring children per ``--trace 0`` pass; ``--seconds`` is split
#: evenly between them.
REPEATS = 4
#: A child that has not finished by then is killed and the pass fails.
CHILD_TIMEOUT_S = 150.0
#: How ``--seconds`` is split in a ``--trace 1`` pass.
TRACE_SHARE, DRIVER_SHARE, TWIN_SHARE = 0.6, 0.3, 0.1


# -- children ---------------------------------------------------------------

def spawn(script: str, *args: object, ready: bool = True,
          ) -> Tuple[float, Dict]:
    """Run one child to completion: (seconds from spawn to READY, report)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = perf_counter()
    # Its own process group, so that a kill also reaches its pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / script), *map(str, args)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
        start_new_session=True)

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
    watchdog.start()
    try:
        setup_s = 0.0
        if ready:
            if proc.stdout.readline().strip() != "READY":
                raise RuntimeError(f"{script} {args}: died during set-up")
            setup_s = perf_counter() - started
        output = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # only after an exception above
            kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {args}: exit code {proc.returncode}")
    return setup_s, json.loads(output.strip().splitlines()[-1])


def measure_child(workload: str, seed: int, scale: float, budget_s: float,
                  ) -> Dict:
    setup_s, report = spawn("child.py", "--workload", workload, "--seed",
                            seed, "--scale", scale, "--budget", budget_s)
    report["setup_s"] = setup_s
    return report


# -- failures ---------------------------------------------------------------

def count_failed(units: Sequence[Dict], reference: str) -> Tuple[int, int]:
    """(attempted, failed) trials over ``units``.

    A trial fails if it raised; every trial of a unit fails if the unit's
    digest is not ``reference``.  Simulated drops, timeouts and shape
    violations are data, not failures.
    """
    attempted = sum(unit["trials"] for unit in units)
    failed = sum(unit["trials"] if unit["digest"] != reference
                 else len(unit["raised"]) for unit in units)
    return attempted, failed


def rate(unit: Dict) -> float:
    return unit["ops"] / unit["wall_s"]


def quiet_wall_s(units: Sequence[Dict]) -> float:
    """The fastest unit's wall.

    Every unit of a pass is the same work, and what a shared host adds to it
    is never negative and comes in episodes of many seconds, so the minimum
    is the steadiest estimate of what the program itself takes; the median
    followed the neighbours.
    """
    return min(unit["wall_s"] for unit in units)


# -- the two passes ---------------------------------------------------------

def end_to_end(workload: str, seed: int, scale: float, seconds: float,
               repeats: int) -> Dict:
    """``repeats`` fresh children; every sample kept."""
    children = [measure_child(workload, seed, scale, seconds / repeats)
                for _ in range(repeats)]
    units = [unit for child in children for unit in child["units"]]
    reference = units[0]["digest"]
    attempted, failed = count_failed(units, reference)
    problems = [problem for child in children
                for problem in child["warm_raised"]]
    if not all(child.get("twin_digest_ok", True) for child in children):
        problems.append("digest differs from the twin workload's")
    if problems:
        failed = attempted
    samples = {
        # One sample per repeat, so --compare can see repeat-to-repeat spread.
        "queries_per_s": [max(map(rate, child["units"]))
                          for child in children],
        "peak_rss_mb": [child["peak_rss_mb"] for child in children],
        "setup_s": [child["setup_s"] for child in children],
    }
    values = {name: statistics.median(values)
              for name, values in samples.items()}
    # Throughput is that of the fastest unit of the whole pass.
    values["queries_per_s"] = max(map(rate, units))
    return {"values": values, "samples": samples, "attempted": attempted,
            "failed": failed, "problems": problems, "digest": reference,
            "units": len(units), "ops_per_unit": units[0]["ops"]}


def per_layer(workload: str, seed: int, scale: float, seconds: float,
              twin: Optional[str], nproc: int) -> Dict:
    """The traced run, the layer drivers and the counters for one workload."""
    OUT.mkdir(exist_ok=True)
    _, traced = spawn("child.py", "--workload", workload, "--seed", seed,
                      "--scale", scale, "--budget", seconds * TRACE_SHARE,
                      "--spans-out", OUT / f"trace-{workload}.json")
    _, driven = spawn("drivers.py", "--budget", seconds * DRIVER_SHARE,
                      ready=False)
    untraced, shimmed = traced["untraced"], traced["traced"]
    pooled = traced["pooled"] or []
    reference = untraced[0]["digest"]
    attempted, failed = count_failed(untraced + pooled + shimmed, reference)
    problems = list(traced["warm_raised"])
    if traced["not_restored"]:
        problems.append(f"shims not restored: {traced['not_restored']}")

    unit_s = quiet_wall_s(untraced)
    ops = untraced[0]["ops"]
    values: Dict[str, float] = dict(driven)
    for point, row in traced["points"].items():
        values[f"{point}.calls"] = row["calls"] / len(shimmed)
        values[f"{point}.self_s"] = row["self_s"] / len(shimmed)
    self_s = sum(row["self_s"] for row in traced["points"].values())
    values["trace.shim_ns"] = traced["shim_ns"]
    values["trace.overhead_pct"] = traced["overhead_pct"]
    values["trace.attributed_share"] = (
        1.0 - traced["outside_s"] / traced["traced_wall_s"])
    values["trace.uncompensated_pct"] = 100.0 * (
        self_s / (unit_s * len(shimmed)) - 1.0)

    def ratio(point: str, field: str) -> float:
        row = traced["points"][point]
        return row[field] / row["calls"] if row["calls"] else 0.0
    values["resolver.cache.hit_ratio"] = ratio("resolver.cache.get", "hits")
    values["dnswire.memo.hit_ratio"] = ratio("dnswire.cached_wire",
                                             "leaf_calls")

    netsim = untraced[0]["netsim"]
    values["netsim.events"] = netsim["events"]
    values["netsim.events_per_s"] = netsim["events"] / unit_s
    values["netsim.events_per_query"] = netsim["events"] / ops
    values["netsim.max_queue_depth"] = netsim["max_queue_depth"]
    values["netsim.simulators"] = netsim["simulators"]

    for name in ("sim.localization", "sim.dns_p50_ms", "sim.total_p99_ms",
                 "sim.fig5_paper_err_pct", "workload.ranklru.hit_ratio"):
        values[name] = untraced[0]["sim"].get(name, 0.0)
    values["sim.shape_violations"] = len(untraced[0]["shape_violations"])

    values["telemetry.spans"] = untraced[0]["spans"]
    values["telemetry.overhead_pct"] = 0.0
    values["telemetry.rss_delta_mb"] = 0.0
    if twin is not None:
        plain = measure_child(twin, seed, scale, seconds * TWIN_SHARE)
        if plain["units"][0]["digest"] != reference:
            problems.append(f"digest differs from {twin}'s")
        values["telemetry.overhead_pct"] = 100.0 * (
            unit_s / quiet_wall_s(plain["units"]) - 1.0)
        values["telemetry.rss_delta_mb"] = (traced["peak_rss_mb"]
                                            - plain["peak_rss_mb"])

    unresolved = []
    for name in ("speedup_jobs2", "chunk_ms.p50", "chunk_ms.max",
                 "dispatch_overhead_s", "worker_peak_rss_mb"):
        values[f"runtime.executor.{name}"] = 0.0
    if pooled:
        chunk_ms = [ms for unit in pooled for ms in unit["chunk_ms"]]
        values["runtime.executor.chunk_ms.p50"] = statistics.median(chunk_ms)
        values["runtime.executor.chunk_ms.max"] = max(chunk_ms)
        values["runtime.executor.dispatch_overhead_s"] = statistics.median(
            unit["wall_s"] - busier_worker_s(unit) for unit in pooled)
        values["runtime.executor.worker_peak_rss_mb"] = (
            traced["worker_peak_rss_mb"])
        if nproc >= 2:
            values["runtime.executor.speedup_jobs2"] = (
                unit_s / quiet_wall_s(pooled))
        else:
            # Two workers on one CPU: the ratio would mean nothing.
            unresolved.append("runtime.executor.speedup_jobs2")
    values["harness.cpu_s"] = statistics.median(
        unit["cpu_s"] for unit in untraced)

    if problems:
        failed = attempted
    return {"values": values, "attempted": attempted, "failed": failed,
            "problems": problems, "digest": reference,
            "unresolved": unresolved}


def busier_worker_s(unit: Dict) -> float:
    """Summed chunk wall of the busier worker, replaying the pool's rule:
    chunks are handed out in order to whichever worker is free first."""
    loads = [0.0] * unit["workers"]
    for wall_ms in unit["chunk_ms"]:
        loads[loads.index(min(loads))] += wall_ms / 1000.0
    return max(loads)


# -- output -----------------------------------------------------------------

def environment(seed: int, scale: float, repeats: int, seconds: float,
                ) -> Dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "seed": seed, "scale": scale, "repeats": repeats,
            "seconds": seconds, "loadavg_1m": os.getloadavg()[0]}


def with_units(values: Dict[str, float], declared: Sequence[Dict],
               ) -> Dict[str, Dict]:
    """``values`` in the order and with the units BENCHMARK.json declares."""
    missing = [metric["name"] for metric in declared
               if metric["name"] not in values]
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if missing or undeclared:
        raise RuntimeError(f"BENCHMARK.json and the harness disagree: "
                           f"missing {missing}, undeclared {undeclared}")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared}


def show(workload: str, metrics: Dict[str, Dict], result: Dict) -> None:
    for name, metric in metrics.items():
        mark = ("  unresolved" if name in result.get("unresolved", ())
                else "")
        print(f"{workload:24s} {name:44s} {metric['value']:16.6g} "
              f"{metric['unit']}{mark}")
    for problem in result["problems"]:
        print(f"{workload:24s} PROBLEM {problem}")
    print(f"{workload:24s} attempted {result['attempted']} "
          f"failed {result['failed']} digest {result['digest'][:16]}",
          flush=True)


def last_line(result: Dict, metrics: Dict[str, Dict]) -> str:
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# -- compare ----------------------------------------------------------------

def spread(samples: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median.

    Inclusive quartiles: with a handful of repeats the exclusive ones are the
    extremes, and one slow child would make every row unresolved.
    """
    if len(samples) < 2:
        return 0.0
    first, _, third = statistics.quantiles(samples, n=4, method="inclusive")
    return (third - first) / statistics.median(samples)


def compare(base_path: str, change_path: str, declared: Sequence[Dict],
            ) -> int:
    """Print base against change for every end-to-end pairing.

    ``regressed``: the change's median is worse than the base's by more than
    the bound.  ``unresolved``: either side's own repeats spread wider than
    the bound, unless every repeat of the change beats every repeat of the
    base.  Exit code 1 if any row regressed.
    """
    with open(base_path) as handle:
        base = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    regressed = False
    for workload, before in base["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            print(f"{workload}: missing from {change_path}")
            continue
        for metric in declared:
            name, higher = metric["name"], metric["better"] == "higher"
            old = before["end_to_end"][name]
            new = after["end_to_end"][name]
            worse_by = ((old["value"] - new["value"]) if higher
                        else (new["value"] - old["value"])) / old["value"]
            clear_win = (min(new["samples"]) > max(old["samples"]) if higher
                         else max(new["samples"]) < min(old["samples"]))
            noisy = max(spread(old["samples"]),
                        spread(new["samples"])) > metric["bound"]
            if worse_by > metric["bound"]:
                verdict, regressed = "regressed", True
            elif noisy and not clear_win:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:24s} {name:16s} base {old['value']:12.6g} "
                  f"change {new['value']:12.6g} {metric['unit']:6s} "
                  f"change/base {new['value'] / old['value']:6.3f} "
                  f"(base {old['value']:.6g}) bound {metric['bound']:.2f} "
                  f"{verdict}")
        # Simulated output is compared exactly and never gated.
        sim_same = all(
            before["per_layer"][name] == after["per_layer"].get(name)
            for name in before.get("per_layer", {})
            if name.startswith("sim."))
        print(f"{workload:24s} failed {before['failed']} -> "
              f"{after['failed']}; digest "
              f"{'identical' if before['digest'] == after['digest'] else 'DIFFERS'}"
              f"; sim.* {'identical' if sim_same else 'DIFFERS'}")
    return 1 if regressed else 0


# -- entry ------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per pass (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one pass only; last stdout line is JSON")
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="fresh children per end-to-end pass")
    parser.add_argument("--scale", type=float, default=SCALE,
                        help="common factor on every workload size")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    if args.compare:
        return compare(*args.compare, declared["end_to_end"])
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro beside bench/: nothing to "
              "measure", file=sys.stderr)
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    names = [workload["name"] for workload in declared["workloads"]]
    if names != list(BY_NAME):
        raise RuntimeError("BENCHMARK.json and bench/workloads.py name "
                           "different workloads")
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        names = [args.workload]
    elif args.trace is not None:
        parser.error("--trace needs --workload")
    seconds = (args.seconds if args.seconds is not None
               else float(declared["run_seconds"]))
    env = environment(args.seed, args.scale, args.repeats, seconds)
    passes = (0, 1) if args.trace is None else (args.trace,)

    document: Dict = {"env": env, "workloads": {}, "claim": None}
    final = ""
    for name in names:
        entry: Dict = {"attempted": 0, "failed": 0, "problems": []}
        for traced in passes:
            if traced:
                result = per_layer(name, args.seed, args.scale, seconds,
                                   BY_NAME[name].twin, env["nproc"])
            else:
                result = end_to_end(name, args.seed, args.scale, seconds,
                                    args.repeats)
            kind = "per_layer" if traced else "end_to_end"
            metrics = with_units(result["values"], declared[kind])
            show(name, metrics, result)
            final = last_line(result, metrics)
            for metric, samples in result.get("samples", {}).items():
                metrics[metric]["samples"] = samples
            entry[kind] = metrics
            entry["digest"] = result["digest"]
            entry["unresolved"] = result.get("unresolved", [])
            if not traced:  # the sample count behind queries_per_s
                entry["units"] = result["units"]
                entry["ops_per_unit"] = result["ops_per_unit"]
            for key in ("attempted", "failed", "problems"):
                entry[key] += result[key]
        document["workloads"][name] = entry

    OUT.mkdir(exist_ok=True)
    if args.trace is None:
        target = OUT / "results.json"
    else:
        target = OUT / f"{names[0]}-trace{args.trace}.json"
    with open(target, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {target.relative_to(ROOT)}")
    if args.trace is not None:
        print(final)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
