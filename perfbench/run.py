"""storybeam benchmark: the real CLI end to end, or layer by layer when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli-story --seed 1 --seconds 30 --trace 0

One client process runs ``python -m storybeam`` processes one at a time
(a closed loop with one request in flight). Set-up generates the inputs
and starts one ``storybeam --help`` process, several times. A round is
``train-lm``, a single-story ``decode`` and ``decode --batch --jobs 1``;
the traced run's round adds ``--jobs 2``. Rounds repeat until
``--seconds`` have passed and at least ``MIN_ROUNDS`` have run. Every
output is checked.

``--trace 0`` prints the end-to-end metrics. A fixed reference process
runs before every set-up and operation and after the last, and every
time is rescaled by the mean of the reference runs on either side of
it, which cancels most of the host's drift in speed. ``--trace 1`` runs
one CLI round for the expected bytes, then replays the round in-process
untraced and traced, and prints the per-layer metrics (not rescaled). The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from functools import partial
from pathlib import Path

from checks import story_problems
from workloads import ALPHA, BEAM_WIDTH, MAX_LEN, MIN_COUNT, ORDER, WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
DEADLINE_S = 150.0      # start no round after this; a run must end within 180 s
MIN_ROUNDS = 5          # fewer samples of any operation make the run incorrect
SETUP_REPEATS = 5
MIN_STEPS_PER_SEGMENT = 8  # the old kernel-bench fixture stopped every segment after 2
STORYBEAM = ("-m", "storybeam")
# A fixed process that uses no storybeam code but does the kinds of work the
# CLI does: interpreter start, numpy and yaml imports, then (timed inside it
# and printed) pure-Python YAML parsing and small numpy arrays expanded,
# partitioned and sorted as in beam selection. It runs before every set-up
# and operation and after the last; it measures the host's speed.
REFERENCE = ("-c", """\
import time
import numpy as np, yaml
start = time.perf_counter()
yaml.safe_load("\\n".join(f"- [w{i}, w{i + 1}, {i}]" for i in range(600)))
rows, prior = np.random.default_rng(0).random((8, 1000)), np.random.default_rng(1).random(1000)
for i in range(1500):
    scores = np.concatenate([(rows[:, 4:] + 2.0 * prior[4:]).ravel(), rows[0, :8]])
    top = np.argpartition(scores, -8)[-8:]
    top = top[np.lexsort((top, -scores[top]))]
print(time.perf_counter() - start)
""")
# Times are rescaled to a host where the reference's work takes WORK_NOMINAL_S.
# Set-up is mostly a process start, so it is rescaled by the whole reference
# process instead, to a host where that takes WALL_NOMINAL_S.
WORK_NOMINAL_S, WALL_NOMINAL_S = 0.2, 0.4


def import_program() -> None:
    """Import storybeam from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "storybeam" / "cli.py").is_file():
        sys.exit(f"perfbench: no storybeam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import storybeam
    if Path(storybeam.__file__).resolve().parent != (SRC / "storybeam").resolve():
        sys.exit(f"perfbench: imported storybeam from {storybeam.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy
    import yaml
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = (lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT
                  else "unknown (not a git checkout)")
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not runnable)"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
        "numba_imports": numba_imports,
        "git_commit": commit,
    }


class Client:
    """Runs CLI processes one at a time; records wall times, failures and outputs."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.samples: dict[str, list[float]] = defaultdict(list)  # wall seconds
        self.timeline: list[tuple[str, float]] = []  # (kind, seconds) in the order run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs: dict[str, str] = {}  # output key -> bytes first seen

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def run(self, kind: str, args: list[str], check=None, program=STORYBEAM) -> str | None:
        """Run one CLI process; ``check()`` returns the problems with its outputs.

        Returns the process's stdout, or None when it failed.
        """
        self.attempted += 1
        budget = max(170.0 - (time.perf_counter() - self.started), 1.0)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *program, *args], env=self.env,
                                  cwd=self.work, capture_output=True, text=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            self.fail(f"{kind}: timed out after {budget:.0f} s")
            return None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.fail(f"{kind}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        try:
            problems = check(proc.stdout) if check else []
        except (OSError, ValueError) as exc:
            problems = [f"outputs unreadable: {exc}"]
        if problems:
            self.fail(f"{kind}: {problems[0]}")
            return None
        self.record(kind, elapsed)
        return proc.stdout

    def reference(self) -> None:
        """Run the reference process; record its wall and its work seconds."""
        def work_problems(stdout: str) -> list[str]:
            return [] if float(stdout) > 0 else [f"work seconds {stdout.strip()!r}"]

        stdout = self.run("reference", [], work_problems, program=REFERENCE)
        if stdout is not None:
            self.record("reference-work", float(stdout))

    def record(self, kind: str, seconds: float) -> None:
        self.samples[kind].append(seconds)
        self.timeline.append((kind, seconds))

    def normalised(self) -> dict[str, list[float]]:
        """Each sample rescaled by the reference runs just before and after it.

        A sample becomes ``seconds * WORK_NOMINAL_S / mean(reference work)``
        (for set-up, ``WALL_NOMINAL_S / mean(reference wall)``): seconds on a
        host where the reference takes the nominal time. Samples without a
        reference after them are dropped.
        """
        scaled = defaultdict(list)
        before, pending, wall = None, [], None
        for kind, seconds in self.timeline:
            if kind == "reference":
                wall = seconds
                continue
            if kind != "reference-work":
                pending.append((kind, seconds, before))
                continue
            after = {"wall": wall, "work": seconds}
            for pending_kind, value, ref in pending:
                basis, nominal = (("wall", WALL_NOMINAL_S) if pending_kind == "setup"
                                  else ("work", WORK_NOMINAL_S))
                refs = [r[basis] for r in (ref, after) if r is not None]
                scaled[pending_kind].append(value * nominal / statistics.mean(refs))
            before, pending = after, []
        return scaled

    def same_as_before(self, key: str, text: str) -> list[str]:
        first = self.first_outputs.setdefault(key, text)
        return [] if first == text else [f"{key}: bytes differ from an earlier output"]


def decode_flags(workload) -> list[str]:
    return ["--beam-width", str(BEAM_WIDTH), "--lambda", repr(workload.strength),
            "--max-len", str(MAX_LEN)]


def round_operations(client: Client, workload, inputs, jobs_levels=(1,)) -> list:
    """The CLI operations of one round, in order, each checking its outputs."""
    work = client.work
    model = work / "model.yaml"

    def check_model(stdout: str) -> list[str]:
        expected = f"vocabulary size: {workload.corpus_words + 4}"  # + 4 special tokens
        if expected not in stdout:
            return [f"train-lm printed {stdout.strip()!r}, expected {expected!r}"]
        return client.same_as_before("model", model.read_text(encoding="utf-8"))

    train = partial(client.run, "train-lm", [
        "train-lm", str(inputs.corpus), "--order", str(ORDER), "--alpha", repr(ALPHA),
        "--min-count", str(MIN_COUNT), "--out", str(model)], check_model)
    decode_model = str(inputs.table or model)
    operations = []
    for i, conditions in enumerate(inputs.single_stories):
        out = work / f"single_{i}.json"

        def check_single(_stdout, out=out, conditions=conditions, key=f"single/{i}"):
            text = out.read_text(encoding="utf-8")
            return story_problems(text, conditions) or client.same_as_before(key, text)

        operations += [train, partial(client.run, "decode", [
            "decode", "--model", decode_model, "--conditions", *conditions,
            *decode_flags(workload), "--out", str(out)], check_single)]
    for jobs in jobs_levels:
        out_dir = work / f"batch_j{jobs}"

        def check_batch(_stdout, out_dir=out_dir):
            written = sorted(p.name for p in out_dir.iterdir())
            expected = [f"story_{i:04d}.json" for i in range(len(inputs.batch_stories))]
            problems = []
            if written != expected:
                problems.append(f"{out_dir.name} holds {len(written)} files, "
                                f"expected {len(expected)}")
            for i, conditions in enumerate(inputs.batch_stories):
                if expected[i] in written:
                    text = (out_dir / expected[i]).read_text(encoding="utf-8")
                    problems += [f"story {i}: {p}" for p in story_problems(text, conditions)]
                    problems += client.same_as_before(f"batch/{i}", text)
            shutil.rmtree(out_dir)  # so the next batch cannot pass on these files
            return problems

        operations.append(partial(client.run, f"batch-j{jobs}", [
            "decode", "--model", decode_model, "--batch", str(inputs.batch),
            "--jobs", str(jobs), *decode_flags(workload), "--out", str(out_dir)],
            check_batch))
    return operations


def outputs_sha256(outputs: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for key in sorted(outputs):
        digest.update(key.encode() + b"\0" + outputs[key].encode("utf-8") + b"\0")
    return digest.hexdigest()


def help_problems(stdout: str) -> list[str]:
    missing = [command for command in ("train-lm", "decode") if command not in stdout]
    return [f"--help does not name {', '.join(missing)}"] if missing else []


def timed_setup(client: Client, workload, seed: int):
    """Set up several times: generate the inputs and start the CLI once.

    Each set-up is recorded as a ``setup`` sample, after a reference run.
    The first ``--help`` process also writes the bytecode caches. Returns
    the inputs.
    """
    for _ in range(SETUP_REPEATS):
        client.reference()
        start = time.perf_counter()
        inputs = make_inputs(workload, seed, client.work / "inputs")
        if client.run("startup", ["--help"], help_problems) is not None:
            client.record("setup", time.perf_counter() - start)
    return inputs


def end_to_end(client: Client, workload, inputs, seconds: float) -> dict:
    operations = round_operations(client, workload, inputs)
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if time.perf_counter() - client.started > DEADLINE_S:
            break
        for operation in operations:
            client.reference()
            operation()
        rounds += 1
    client.reference()  # closes the last sample
    # the host's speed drifts by a third within seconds, and the reference
    # runs on either side of a sample track it
    samples = client.normalised()
    counts = {kind: len(samples[kind]) for kind in ("setup", "decode", "train-lm", "batch-j1")}
    short = {kind: n for kind, n in counts.items()
             if n < (SETUP_REPEATS if kind == "setup" else MIN_ROUNDS)}
    if short:
        client.fail(f"too few samples before the deadline: {short}")
    stories = len(inputs.batch_stories)

    def median(kind, per_story=False):
        values = samples[kind] or [float("nan")]
        return statistics.median([stories / v for v in values] if per_story else values)

    return {
        "setup_s": (median("setup"), "s"),
        "cli_decode_p50_s": (median("decode"), "s"),
        "train_lm_p50_s": (median("train-lm"), "s"),
        "batch_j1_stories_per_s": (median("batch-j1", True), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB"),
    }


def traced(client: Client, workload, inputs) -> tuple[dict, dict]:
    import tracing

    for operation in round_operations(client, workload, inputs, jobs_levels=(1, 2)):
        operation()

    def replay(layers):
        client.attempted += 1
        start = time.perf_counter()
        try:
            outputs = tracing.replay(workload, inputs, layers)
        except Exception as exc:  # the program failed in-process; report it, do not crash
            client.fail(f"in-process replay raised {exc!r}")
            return float("nan")
        wall = time.perf_counter() - start
        mismatched = sorted(k for k, text in client.first_outputs.items()
                            if outputs.get(k) != text)
        if mismatched:
            client.fail(f"in-process replay differs from the CLI on {len(mismatched)} "
                        f"outputs, first {mismatched[0]}")
        return wall

    # untraced on both sides of the traced replay, so warm-up is not charged to tracing
    layers = tracing.Layers()
    plain_before = replay(None)
    traced_wall = replay(layers)
    plain_wall = (plain_before + replay(None)) / 2
    metrics = tracing.layer_metrics(layers)
    shares = {}
    for scope, busy, wall in (("round", layers.busy, traced_wall),
                              ("batch", layers.batch_busy, layers.batch_wall)):
        if not wall > 0:  # the replay failed, which is already reported
            continue
        seconds = tracing.layer_seconds(busy)
        if min(seconds.values()) < 0 or sum(seconds.values()) > wall:
            client.fail(f"{scope} layer times do not reconcile: self "
                        f"{seconds['decoding.self']:.4f} s, sum {sum(seconds.values()):.4f} s, "
                        f"wall {wall:.4f} s")
        shares[scope] = {layer: s / wall for layer, s in seconds.items()}
    if metrics["decoding.steps_per_segment"][0] < MIN_STEPS_PER_SEGMENT:
        client.fail(f"segments stop after {metrics['decoding.steps_per_segment'][0]:.1f} "
                    f"steps on average, fewer than {MIN_STEPS_PER_SEGMENT}")
    j1, j2 = client.samples["batch-j1"], client.samples["batch-j2"]
    metrics["cli.startup_s"] = (
        statistics.median(client.samples["startup"] or [float("nan")]), "s")
    metrics["cli.jobs2_speedup"] = ((j1[0] / j2[0]) if j1 and j2 else float("nan"), "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return metrics, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: running children are killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    import_program()
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    work = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        client = Client(work, started)
        inputs = timed_setup(client, workload, seed)
        if trace:
            metrics, shares = traced(client, workload, inputs)
        else:
            metrics, shares = end_to_end(client, workload, inputs, seconds), {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if trace:  # untraced runs print it on its own line: it is 0 whenever they are correct
        metrics["ops_failed_ratio"] = (client.failed / client.attempted, "ratio")
    correct = client.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())

    print(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    for kind, values in sorted((k, v) for k, v in client.samples.items() if v):
        print(f"samples {kind}: n={len(values)} median {statistics.median(values):.4f} s "
              f"min {min(values):.4f} s max {max(values):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    if workload.name == "tie-heavy" and "batch_j1_stories_per_s" in metrics:
        print(f"metric tie_stories_per_s {metrics['batch_j1_stories_per_s'][0]:.6g} 1/s")
    for scope, by_layer in shares.items():
        for layer, share in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            print(f"share {scope} {layer} {share:.3f}")
    print(f"ops attempted {client.attempted} failed {client.failed} "
          f"ops_failed_ratio {client.failed / client.attempted:.6g}")
    print(f"output_sha256 {outputs_sha256(client.first_outputs)}")
    for problem in client.problems:
        print(f"problem {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
