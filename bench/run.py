#!/usr/bin/env python3
"""Benchmark for ``cosetalg``: seeded workloads against its public API and CLI.

One run:

    python3 bench/run.py --workload finite --seed 1 --seconds 10 --trace 0

sets up the workload, repeats its round of operations until ``--seconds``
have passed (clearing the package's caches before each round, so every
round starts cold), checks the outputs, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
other round is traced and the metrics are the per-layer ones, with the
tracing overhead.  Every workload in both modes, as a table:

    python3 bench/run.py --all --seed 1

The package is imported from ``src/`` beside this directory; without it the
benchmark exits with status 2.  Results, failure reasons, raw latencies and
spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cosets.enumerate_s": "s", "cosets.matrices": "count",
    "algebra.product_s": "s", "algebra.products": "count", "algebra.constants": "count",
    "algebra.element_mul_s": "s", "algebra.assoc_s": "s", "algebra.cache_entries": "count",
    "universal.product_s": "s", "universal.products": "count", "universal.constants": "count",
    "universal.num_terms": "count", "universal.den_factors": "count",
    "universal.cache_entries": "count",
    "epsring.specialize_s": "s", "epsring.specializations": "count",
    "epsring.expand_s": "s", "epsring.expansions": "count", "epsring.canonicalize_s": "s",
    "poisson.bracket_s": "s", "poisson.brackets": "count", "poisson.graded_mul_s": "s",
    "poisson.element_arith_s": "s", "poisson.cache_entries": "count",
    "braid.check_s": "s", "braid.relations": "count",
    "oracle.partition_s": "s", "oracle.product_s": "s", "oracle.products": "count",
    "nu2.sum_s": "s", "nu2.closed_s": "s", "nu2.oracle_s": "s",
    "cli.startup_ms": "ms", "cli.import_ms": "ms", "cli.compute_s": "s", "cli.overhead_s": "s",
    "cli.calls": "count", "cli.stdout_bytes": "bytes",
    "trace.ops_per_s": "1/s", "trace.overhead_pct": "%", "host.probe_ms": "ms",
}

SETUP_RUNS = 5


def clear_caches():
    """Empty every ``lru_cache`` of the package, as in a fresh process."""
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "cosetalg":
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def cache_entries() -> dict[str, int]:
    from cosetalg import algebra, poisson, universal

    return {
        "algebra.cache_entries": algebra._product_terms.cache_info().currsize,
        "universal.cache_entries": universal._product_terms.cache_info().currsize,
        "poisson.cache_entries": poisson._bracket_basis.cache_info().currsize
        + poisson._order_one_linear.cache_info().currsize,
    }


def time_setup(name: str, seed: int) -> float:
    """Seconds, scaled, from spawning a fresh interpreter until it has imported
    the package and built the workload's inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    before = speed.probe()
    started = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up of {name} failed with status {proc.returncode}")
    return speed.scaled(elapsed, [before, speed.probe(), speed.probe()])


def tail_percentile(ops_per_round: int) -> int:
    """The highest whole percentile with at least ten of a round's operations beyond it."""
    if ops_per_round < 40:
        raise ValueError("a tail needs at least forty operations per round")
    return math.floor(100 * (1 - 10 / ops_per_round))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


@dataclass
class Rounds:
    first: list = field(default_factory=list)           # outputs of the first round
    differs: list[set[int]] = field(default_factory=list)   # per round: ops whose output changed
    traced: list[bool] = field(default_factory=list)
    tracers: list[tracing.Tracer] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)       # seconds per operation, in order
    scale: speed.SpeedScale = field(default_factory=speed.SpeedScale)
    caches: dict[str, int] = field(default_factory=dict)


def run_rounds(workload, seconds: float, trace: bool) -> Rounds:
    """Repeat the workload's round until ``seconds`` have passed.

    A traced run needs at least three rounds: a plain first round, left out
    of the overhead because the process is still warming up, then traced and
    plain rounds in turn.
    """
    rounds = Rounds()
    started = time.perf_counter()
    while True:
        traced = trace and len(rounds.traced) % 2 == 1
        if not workload.warm:
            clear_caches()
        tracer = tracing.Tracer()
        if traced:
            tracing.install(tracer)
        differs = set()
        for k, op in enumerate(workload.ops):
            tracer.op = k
            t0 = time.perf_counter()
            out = workload.run_op(op, tracer)
            dt = time.perf_counter() - t0
            rounds.raw.append(dt)
            rounds.scale.after_op(dt)
            if not rounds.traced:
                rounds.first.append(out)
            elif out != rounds.first[k]:
                differs.add(k)
        if traced:
            rounds.caches = cache_entries()
            tracer.unwrap_all()
            rounds.tracers.append(tracer)
        rounds.traced.append(traced)
        rounds.differs.append(differs)
        if time.perf_counter() - started >= seconds and len(rounds.traced) >= (3 if trace else 1):
            return rounds


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: the result object and the details written beside it."""
    setup_s = statistics.median(time_setup(name, seed) for _ in range(SETUP_RUNS))
    setup_tracer = tracing.Tracer()
    if trace:
        tracing.install(setup_tracer)
    workload = WORKLOADS[name](seed)
    setup_tracer.unwrap_all()

    rounds = run_rounds(workload, seconds, trace)
    peak_rss_kb = workload.peak_rss_kb()
    latencies = [dt * f for dt, f in zip(rounds.raw, rounds.scale.factors())]

    check_tracer = tracing.Tracer()
    check_tracer.enabled = trace
    failures, extra = workload.check(rounds.first, check_tracer)
    per_round = len(workload.ops)
    reasons = [f"op {k}: {r}" for k, r in sorted(failures.items())] + extra
    reasons += [f"op {k} differs from the first round" for d in rounds.differs for k in sorted(d)]

    if trace:
        metrics = layer_metrics(setup_tracer, rounds, check_tracer)
        round_s = [sum(latencies[i * per_round:(i + 1) * per_round]) for i in range(len(rounds.traced))]

        def rate(traced):
            chosen = [s for i, (t, s) in enumerate(zip(rounds.traced, round_s)) if i and t == traced]
            return per_round * len(chosen) / sum(chosen)

        metrics["trace.ops_per_s"] = rate(True)
        metrics["trace.overhead_pct"] = 100 * (1 - rate(True) / rate(False))
        metrics["host.probe_ms"] = statistics.median(rounds.scale.probes) * 1e3
        units = PER_LAYER
        write_spans(name, seed, setup_tracer, rounds.tracers, check_tracer)
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": percentile(latencies, tail_percentile(per_round)) * 1e3,
            "peak_rss_mb": peak_rss_kb / 1024,
        }
        units = END_TO_END
    result = {
        "correct": not extra,
        "attempted": per_round * len(rounds.traced),
        "failed": sum(len(set(failures) | d) for d in rounds.differs),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    details = {
        "reasons": reasons,
        "ops_per_round": per_round,
        "tail_percentile": tail_percentile(per_round),
        "raw_latencies": rounds.raw,
        "probes": rounds.scale.probes,
        "probes_before_op": rounds.scale.marks,
    }
    return result, details


def layer_metrics(setup_tracer, rounds: Rounds, check_tracer) -> dict[str, float]:
    """The set-up's and the checks' share plus one round's share (the mean over traced rounds)."""
    out: dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    shares = [(setup_tracer, 1), (check_tracer, 1)] + [(t, 1 / len(rounds.tracers)) for t in rounds.tracers]
    for tracer, weight in shares:
        for key, value in tracer.summary().items():
            if key in out:
                out[key] += value * weight
    for key, unit in PER_LAYER.items():
        if unit in ("count", "bytes"):
            out[key] = round(out[key])   # every traced round does the same work
    for key in ("cli.startup_ms", "cli.import_ms"):
        samples = [v for t in rounds.tracers for v in t.samples[key]]
        out[key] = statistics.median(samples) if samples else 0
    out.update(rounds.caches)
    return out


def write_spans(name, seed, setup_tracer, tracers, check_tracer):
    """One JSON line per span: phase, operation, name, parent index, start, end."""
    OUT.mkdir(exist_ok=True)
    phases = [("setup", setup_tracer)] + [(f"traced-round-{i}", t) for i, t in enumerate(tracers)]
    with open(OUT / f"trace-{name}-{seed}.jsonl", "w") as f:
        for phase, tracer in phases + [("check", check_tracer)]:
            for span in tracer.spans:
                f.write(json.dumps([phase, *span]) + "\n")


def run_all(seed: int, seconds: float):
    """Every workload, untraced then traced, each run in its own process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, check=True)
            result = json.loads(done.stdout.decode().splitlines()[-1])
            summary[f"{name}/trace{trace}"] = result
            print(f"\n{name} ({'traced' if trace else 'untraced'}): "
                  f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            for key, metric in result["metrics"].items():
                if trace == 0 or metric["value"]:
                    print(f"  {key:28s} {metric['value']:14.6g} {metric['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-{seed}.json").write_text(json.dumps(summary, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cosetalg" / "__init__.py").is_file():
        print(f"cosetalg sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        run_all(args.seed, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in details["reasons"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, **details)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
