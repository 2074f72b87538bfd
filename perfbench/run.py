"""Mining benchmark for localmine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One run generates the workload's inputs
from the seed (untimed), then, for about ``--seconds`` seconds:

1. trains the filter several times (``setup_s``): load the bundled
   lexicon, train on the seeded corpus of 1,000 pairs, save the model;
2. mines repeatedly with ``run_pipeline`` from a snapshot, the saved
   model set as ``[filter] model_path``, the crawler delay at 0 and
   every other setting at its default.

Every operation runs in a fresh process (``child.py``), so its peak
memory is its own.  Timing is taken around the public calls from
outside the program.

Times are reported in reference seconds.  The shared 2-vCPU hosts this
benchmark runs on slow a core by up to twofold for tens of seconds at a
time, whatever the program does, and a 50 s run cannot average that
out.  So each operation's child also samples a fixed probe loop on the
program's own thread while the operation runs (``child.SpeedProbe``),
and each wall or CPU time is multiplied by ``PROBE_REF_S`` over that
operation's median probe time: the time it would have taken had the
core run the probe at its reference speed.  The unscaled samples are
printed on the human-readable lines.

With ``--trace 1`` the mining repeats alternate between untraced and
traced processes; the traced ones rebind the layer entry points
(``tracer.py``) and give the per-layer metrics.

Correctness gate: the model bytes must match across set-ups, the corpus
and report bytes across all repeats (traced or not), the report's URL
and error counts must equal the planted ones, and recall and precision
against the planted pairs must reach fixed floors.  A run that
fails any check prints ``"correct": false`` with no metrics and exits 1.

Metric names and units come from ``BENCHMARK.json``; human-readable
lines go first and the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
OUTPUTS = ("corpus.jsonl", "corpus.tsv", "report.json", "report.tsv")
SETUPS = 3
MIN_REPEATS = 3  # untraced mining repeats; a traced run needs 2 of each kind
MAX_REPEATS = 40
HARD_LIMIT_S = 150.0  # the whole run, generation included
# The probe loop's time on an idle core of the host the bounds were set
# on (2-vCPU Xeon, Sapphire Rapids, Python 3.11); any fixed value would
# do, this one keeps reference seconds close to wall seconds there.
PROBE_REF_S = 0.0003
# Quality floors: far enough below what every workload reaches that
# only broken output falls under them.
MIN_RECALL = 0.85
MIN_PRECISION = 0.95


class BenchError(Exception):
    """A check failed: the run is reported as incorrect."""


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Starts each operation in its own process and counts them."""

    def __init__(self, work: Path, src: Path) -> None:
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
        self.ops = 0
        self.failed = 0

    def child(self, *args: str, spans: Path | None = None) -> dict:
        self.ops += 1
        result = self.work / f"result{self.ops}.json"
        cmd = [sys.executable, str(HERE / "child.py"), *args, "--result", str(result)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        budget = max(5.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            self.failed += 1
            raise BenchError(f"{args[0]} did not finish within {budget:.0f} s")
        if proc.returncode != 0:
            self.failed += 1
            raise BenchError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        out = json.loads(result.read_text(encoding="utf-8"))
        out["scale"] = PROBE_REF_S / out["probe_s"]
        out["ref_wall_s"] = out["wall_s"] * out["scale"]
        out["ref_cpu_s"] = out["cpu_s"] * out["scale"]
        return out


def write_config(path: Path, manifest: dict, out_dir: Path, model: Path) -> None:
    sections = {name: dict(keys) for name, keys in manifest["config"].items()}
    sections.setdefault("pipeline", {})["output_dir"] = str(out_dir)
    sections.setdefault("crawler", {})["per_host_delay_ms"] = "0"
    sections.setdefault("filter", {})["model_path"] = str(model)
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def quality(out: Path, manifest: dict) -> dict[str, float]:
    """Recall, precision and site-error share of one run's outputs,
    checked against the planted manifest."""
    planted = {tuple(pair) for pair in manifest["planted"]}
    with open(out / "corpus.tsv", encoding="utf-8") as fh:
        rows = [tuple(line.rstrip("\n").split("\t", 1)) for line in fh]
    hits = sum(1 for row in rows if row in planted)
    recall = len(planted & set(rows)) / len(planted)
    precision = hits / len(rows) if rows else 0.0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    n_urls = sum(row["n_urls"] for row in report)
    n_errors = sum(row["n_errors"] for row in report)
    problems = []
    if (n_urls, n_errors) != (manifest["expected_urls"], manifest["expected_errors"]):
        problems.append(f"report counts #URLs={n_urls} #errors={n_errors}, planted "
                        f"{manifest['expected_urls']} and {manifest['expected_errors']}")
    if recall < MIN_RECALL:
        problems.append(f"recall {recall:.4f} < {MIN_RECALL}")
    if precision < MIN_PRECISION:
        problems.append(f"precision {precision:.4f} < {MIN_PRECISION}")
    if problems:
        raise BenchError("; ".join(problems))
    return {"recall": recall, "precision": precision,
            "site_error_rate": n_errors / n_urls if n_urls else 0.0}


def stored_pages(out: Path) -> int:
    return sum(
        sum(1 for line in open(m, encoding="utf-8") if line.strip())
        for m in out.glob("*/pages/manifest.jsonl")
    )


def run(args, bench: dict, runner: Runner) -> tuple[dict, dict, dict]:
    """Generate, set up, mine; return (metrics, sample counts, and for an
    untraced run the wall time of every set-up and repeat in run order)."""
    import gen
    import tracer

    work = runner.work
    manifest = gen.build(args.workload, args.seed, work / "inputs")
    started = time.perf_counter()
    deadline = started + args.seconds
    trace = bool(args.trace)

    n_setups = 2 if trace else SETUPS  # traced: one plain, then one traced
    setups, models, setup_layers = [], [], {}
    seconds = {m["name"] for m in bench["per_layer"] if m["unit"] == "s"}

    def scaled(layer_metrics: dict, scale: float) -> dict:
        return {name: value * scale if name in seconds else value
                for name, value in layer_metrics.items()}

    plain, traced, layer_runs = [], [], []
    reference, scores = None, None

    def set_up(k: int) -> None:
        nonlocal setup_layers
        model = work / f"model{k}.json"
        spans = work / "setup_spans.json" if trace and k == 1 else None
        result = runner.child("setup", "--train", manifest["train_tsv"], "--model", str(model),
                              spans=spans)
        setups.append(result)
        models.append(sha256(model))
        if models[-1] != models[0]:
            raise BenchError("filter training is not deterministic: model bytes differ")
        if spans is not None:
            setup_layers = scaled(tracer.setup_metrics(json.loads(spans.read_text())["spans"]),
                                  result["scale"])

    def mine(k: int, is_traced: bool) -> dict:
        nonlocal reference, scores
        out = work / f"out{k}"
        config = work / f"run{k}.ini"
        write_config(config, manifest, out, work / "model0.json")
        spans = work / f"spans{k}.json" if is_traced else None
        result = runner.child("mine", "--config", str(config), spans=spans)
        digest = {name: sha256(out / name) for name in OUTPUTS}
        if reference is None:
            reference = digest
            scores = quality(out, manifest)
        elif digest != reference:
            runner.failed += 1
            changed = [name for name in OUTPUTS if digest[name] != reference[name]]
            raise BenchError(f"repeat {k} ({'traced' if is_traced else 'untraced'}) "
                             f"wrote different bytes: {', '.join(changed)}")
        with open(out / "corpus.tsv", encoding="utf-8") as fh:
            result["records"] = sum(1 for _ in fh)
        result["pages"] = stored_pages(out)
        if spans is not None:
            dump = json.loads(spans.read_text())
            layer_runs.append(scaled(tracer.mining_metrics(dump["spans"], dump["counts"]),
                                     result["scale"]))
        shutil.rmtree(out)
        return result

    # Set-ups and mining repeats interleave, so that both sample the
    # whole run rather than one stretch of it.
    for k in range(MAX_REPEATS):
        if k < n_setups:
            set_up(k)
        is_traced = trace and k % 2 == 1
        result = mine(k, is_traced)
        (traced if is_traced else plain).append(result)
        need = 2 if trace else MIN_REPEATS
        enough = k + 1 >= n_setups and len(plain) >= need and len(traced) >= (need if trace else 0)
        now = time.perf_counter()
        overrun = now - runner.started + result["wall_s"] + 1.0 > HARD_LIMIT_S
        if enough and (now >= deadline or overrun):
            break

    def med(values):
        return statistics.median(values)

    if trace:
        metrics = {name: med([run[name] for run in layer_runs]) for name in layer_runs[0]}
        metrics.update(setup_layers)
        metrics["trace.overhead"] = (med([r["ref_wall_s"] for r in traced])
                                     / med([r["ref_wall_s"] for r in plain]))
        samples = dict.fromkeys(metrics, len(layer_runs))
        samples.update(dict.fromkeys(setup_layers, 1))
    else:
        metrics = {
            "setup_s": med([r["ref_wall_s"] for r in setups]),
            "mine_s": med([r["ref_wall_s"] for r in plain]),
            "mine_cpu_s": med([r["ref_cpu_s"] for r in plain]),
            "pages_per_s": med([r["pages"] / r["ref_wall_s"] for r in plain]),
            "pairs_per_s": med([r["records"] / r["ref_wall_s"] for r in plain]),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in plain]),
            **scores,
        }
        samples = dict.fromkeys(metrics, len(plain))
        samples["setup_s"] = len(setups)
        samples.update(dict.fromkeys(scores, 1))
    declared = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(metrics) != declared:
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ declared)} "
                         "disagree with BENCHMARK.json")
    series = {} if trace else {
        "setup_s": [r["ref_wall_s"] for r in setups],
        "mine_s": [r["ref_wall_s"] for r in plain],
        "unscaled setup_s": [r["wall_s"] for r in setups],
        "unscaled mine_s": [r["wall_s"] for r in plain],
        "probe_ms": [r["probe_s"] * 1e3 for r in plain],
    }
    return metrics, samples, series


def main() -> int:
    parser = argparse.ArgumentParser(description="localmine mining benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "localmine" / "__init__.py").is_file():
        print("perfbench: ./src/localmine not found; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, src)
    try:
        metrics, samples, series = run(args, bench, runner)
    except BenchError as err:
        print(f"perfbench: FAILED {args.workload} seed={args.seed}: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, runner.ops),
                          "failed": max(1, runner.failed), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc()} python={platform.python_version()} numpy={numpy.__version__}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {units[name]:6s} n={samples[name]}")
    for name, values in series.items():
        print(f"# {name} samples: " + " ".join(f"{v:.3f}" for v in values))
    print(json.dumps({
        "correct": True,
        "attempted": runner.ops,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
