"""Parent side of the harness: spawn repetitions, check that they are the
same simulation, and fold them into end-to-end and per-layer values.

The parent never imports ``repro``: every repetition is a fresh
``child.py`` process, which is the path users run (``python -m repro``),
gives each repetition its own ``ru_maxrss`` and keeps one repetition's
garbage out of the next.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import catalog, cells, layers, spans
from .summarize import highest_supported_percentile, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
#: a repetition that takes longer than this is killed (driver cap: 180 s
#: for the whole run)
CHILD_TIMEOUT = 150.0

#: sha256 of the pinned learned policies (copies of
#: benchmarks/_artifacts/{policy,backoff}_tpcc_wh{1,8}_quick.json)
FIXTURE_SHA256 = {
    "policy_tpcc_wh1_quick.json":
        "51661832ad484b203c008b249d5e4c9da8b32619c90adb7467cb8398e28edada",
    "backoff_tpcc_wh1_quick.json":
        "614203c91fc71b815b1c2758faeb9bdd401695642a54f944595e882a06dc2832",
    "policy_tpcc_wh8_quick.json":
        "75dbc73b350ce0c9a95543f4cbdb5cf46bf8297345bb4c5fb7eb18c72e852fff",
    "backoff_tpcc_wh8_quick.json":
        "aab1e70fa74e7da480243caa8392e7ec540e57d336dc84942d44d35878a8c653",
}


class BenchmarkFailure(Exception):
    """An oracle, invariant or determinism check failed, or a repetition
    could not run; no numbers are reported."""


def check_checkout() -> str:
    """Refuse to run outside a checkout of the program, and verify the
    pinned fixtures before anything is timed.  Returns one digest over all
    fixtures (recorded with every result)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        raise BenchmarkFailure(
            f"no program to measure: {ROOT}/src/repro is missing")
    combined = hashlib.sha256()
    for name, expected in sorted(FIXTURE_SHA256.items()):
        path = os.path.join(HERE, "fixtures", name)
        with open(path, "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        if actual != expected:
            raise BenchmarkFailure(f"fixture {name} changed: sha256 {actual}")
        combined.update(actual.encode())
    return combined.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int, fixture_sha: str) -> dict:
    """What every result record carries."""
    return {
        "host": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                 "platform": platform.platform()},
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "seed": seed,
        "fixture_sha": fixture_sha,
        "load1": os.getloadavg()[0],
    }


def spawn(name: str, mode: str, seed: int) -> dict:
    """Run one repetition in a fresh process and return its record, with
    ``setup_s`` / ``wall_s`` measured from just before the spawn."""
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}-{name}-{mode}")
    spec = json.dumps({"name": name, "mode": mode, "seed": seed,
                       "workdir": workdir})
    t_spawn = time.time()
    # its own session: a timeout kills the repetition *and* any evaluation
    # workers it forked (train_ea --jobs 2)
    process = subprocess.Popen([sys.executable, CHILD, spec], cwd=ROOT,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkFailure(
            f"{name}/{mode}: repetition exceeded {CHILD_TIMEOUT:.0f} s")
    if process.returncode != 0:
        raise BenchmarkFailure(
            f"{name}/{mode}: repetition exited {process.returncode}\n"
            + stderr.strip()[-2000:])
    record = json.loads(stdout.strip().splitlines()[-1])
    startup = record["t_start"] - t_spawn
    record["setup_s"] = startup + record["setup_from_start_s"]
    record["wall_s"] = startup + record["body_from_start_s"]
    return record


def end_to_end_values(record: dict) -> Dict[str, float]:
    """The nine end-to-end metrics of one untraced repetition."""
    sim = record["sim"]
    return {
        "setup_s": record["setup_s"],
        "wall_s": record["wall_s"],
        "events_per_s": record["events"] / record["run_s"],
        "peak_rss_mb": record["rss_mb"],
        "sim_tps": sim["tps"],
        "sim_goodput_tps": sim["goodput_tps"],
        "sim_commit_ratio": 1.0 - sim["abort_rate"],
        "sim_p50_latency_us": sim["p50_us"],
        "sim_p95_latency_us": sim["p95_us"],
    }


def operations(record: dict) -> tuple:
    """``(attempted, failed)`` of one repetition: invocations resolved in
    the measurement window (open loop: shed or late = failed) plus, for
    the trainer, fitness evaluations (failed or timed out = failed)."""
    sim = record["sim"]
    attempted = sim.get("resolved", sim["commits"])
    failed = sim.get("shed", 0) + sim.get("late", 0)
    extra = record["extra"]
    attempted += extra.get("evaluations", 0)
    failed += extra.get("failed_evaluations", 0)
    return attempted, failed


#: program seeds one ``--seed`` may draw from: ``seed * CANDIDATES + j``
CANDIDATES = 10


def is_degenerate(record: dict) -> bool:
    """Too few latency samples to support p95 with ten beyond it.  At about
    2 % of program seeds the 1-warehouse TPC-C run under the wh1 fixture
    collapses (an early abort cascade drives 15 of 16 workers into a
    9 000-tick backoff and one worker runs alone, ~20 k TPS instead of
    ~135 k); such a seed measures that pathology, not the workload."""
    return (highest_supported_percentile(record["sim"]["latency_n"])
            or 0.0) < 0.95


class WorkloadRun:
    """Every repetition of one workload at one ``--seed``."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        #: the program seed of each sub-seed slot.  One ``--seed`` fans out
        #: into SUB_SEEDS program seeds so that a simulated metric is a
        #: median over that many simulations, not one draw; distinct
        #: ``--seed`` values never share one.  A degenerate program seed is
        #: replaced by the next unused candidate (deterministically: the
        #: simulation decides, and it repeats for a seed).
        self.program_seeds = [seed * CANDIDATES + j
                              for j in range(catalog.SUB_SEEDS)]
        self.replaced_seeds: List[int] = []
        #: first record seen at each program seed (the identity reference)
        self._reference: Dict[int, dict] = {}
        self.verify: Optional[dict] = None
        self.timed: List[dict] = []
        self.spans: Optional[dict] = None
        self.profile: Optional[dict] = None
        self.ledger: Dict[str, List[dict]] = {}
        self.load1 = os.getloadavg()[0]

    # -- repetitions ------------------------------------------------------ #

    def _rep(self, mode: str, k: int = 0) -> dict:
        """One repetition at sub-seed slot ``k mod SUB_SEEDS``."""
        slot = k % catalog.SUB_SEEDS
        while True:
            record = spawn(self.name, mode, self.program_seeds[slot])
            if not is_degenerate(record):
                self._check(record)
                return record
            used = len(self.program_seeds) + len(self.replaced_seeds)
            if used >= CANDIDATES:
                raise BenchmarkFailure(
                    f"{self.name}: more than {CANDIDATES - catalog.SUB_SEEDS}"
                    f" degenerate program seeds for --seed {self.seed}: "
                    f"{self.replaced_seeds}")
            print(f"{self.name}: program seed {record['seed']} is "
                  f"degenerate ({record['sim']['latency_n']} latency "
                  f"samples); replaced", file=sys.stderr)
            self.replaced_seeds.append(self.program_seeds[slot])
            self.program_seeds[slot] = self.seed * CANDIDATES + used

    def _check(self, record: dict) -> None:
        """Simulated results are deterministic for a seed: every
        repetition at one program seed, whatever its mode, must be the
        byte-identical simulation (and the trainer must write identical
        policy bytes)."""
        reference = self._reference.setdefault(record["seed"], record)
        for key, where in (("summary_sha", "sim"), ("policy_sha", "extra")):
            if record[where].get(key) != reference[where].get(key):
                raise BenchmarkFailure(
                    f"{self.name}: {record['mode']} repetition diverged "
                    f"from the {reference['mode']} one ({key}): the "
                    f"simulation is not deterministic for seed "
                    f"{record['seed']}")

    def verify_rep(self) -> None:
        self.verify = self._rep("verify")

    def timed_rep(self, k: Optional[int] = None) -> None:
        """One untraced repetition; by default the next sub-seed in turn,
        so the first SUB_SEEDS repetitions cover each once."""
        self.timed.append(self._rep(
            "timed", len(self.timed) if k is None else k))

    def traced_reps(self) -> None:
        self.spans = self._rep("spans")
        residual = spans.tree_residual(self.spans["spans"])
        if residual > 0.01:
            raise BenchmarkFailure(
                f"{self.name}: span self times miss their parent by "
                f"{residual:.1%}")
        self.profile = self._rep("profile")
        shares = self.profile["profile"]["self_frac"]
        total = sum(shares[b] for b in layers.LEAF_BUCKETS)
        if abs(total - 1.0) > 1e-6:
            raise BenchmarkFailure(
                f"{self.name}: cProfile shares sum to {total}")

    def ledger_round(self) -> None:
        """One repetition of each of this workload's ledger cells."""
        for cell in cells.LEDGER_OF[self.name]:
            self.ledger.setdefault(cell, []).append(
                spawn(cell, "timed", self.program_seeds[0]))
        if self.name == "train_ea":
            # T1 is the workload itself: one more untraced repetition, at
            # the seed T2 ran
            self.timed_rep(0)

    # -- results ---------------------------------------------------------- #

    def operations(self) -> tuple:
        records = self.timed + [r for r in (self.verify, self.spans,
                                            self.profile) if r is not None]
        pairs = [operations(r) for r in records]
        return sum(a for a, _f in pairs), sum(f for _a, f in pairs)

    def end_to_end(self) -> Dict[str, dict]:
        """Median, quartiles, min, n and the ``unresolved`` flag of every
        end-to-end metric: host metrics over every untraced repetition,
        simulated metrics over the first SUB_SEEDS (one per sub-seed, so
        the value does not depend on how many repetitions fitted)."""
        samples = [end_to_end_values(r) for r in self.timed]
        result = {}
        for metric in catalog.END_TO_END:
            values = [s[metric.name] for s in samples]
            if metric.kind == "sim":
                result[metric.name] = summarize(values[:catalog.SUB_SEEDS])
            else:
                result[metric.name] = summarize(values, metric.bound)
        return result

    def per_layer(self) -> Dict[str, float]:
        obs_run_tps = self.spans["sim"]["tps"] \
            if self.name == "obs_report" else None
        try:
            layers.check_ledger(self.ledger, obs_run_tps)
            return layers.per_layer(self.timed, self.spans, self.profile,
                                    self.verify, self.ledger, self.load1)
        except layers.LedgerInconsistent as exc:
            raise BenchmarkFailure(f"{self.name}: {exc}") from exc

    def dump(self, path: str, prov: dict) -> None:
        """Write every record of the run (spans and profile included)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": prov, "workload": self.name,
                       "program_seeds": self.program_seeds,
                       "replaced_seeds": self.replaced_seeds,
                       "verify": self.verify, "timed": self.timed,
                       "spans": self.spans, "profile": self.profile,
                       "ledger": self.ledger}, fh)


def measure_end_to_end(run: WorkloadRun, seconds: float) -> None:
    """The driver's ``--trace 0`` run: one verify repetition (discarded as
    the warm-up), then untraced repetitions for ``seconds``, never fewer
    than :data:`catalog.MIN_REPS`."""
    run.verify_rep()
    started = time.monotonic()
    while True:
        run.timed_rep()
        elapsed = time.monotonic() - started
        typical = statistics.median(r["wall_s"] for r in run.timed)
        if len(run.timed) >= catalog.MIN_REPS \
                and elapsed + typical > seconds:
            return


def measure_layers(run: WorkloadRun, seconds: float) -> None:
    """The driver's ``--trace 1`` run: verify, one untraced reference, the
    spans and cProfile repetitions, then ledger rounds while they fit
    (at least one, at most :data:`catalog.LEDGER_REPS`)."""
    started = time.monotonic()
    run.verify_rep()
    run.timed_rep(0)
    run.traced_reps()
    if not cells.LEDGER_OF[run.name]:
        return
    for _round in range(catalog.LEDGER_REPS):
        round_started = time.monotonic()
        run.ledger_round()
        now = time.monotonic()
        if (now - started) + (now - round_started) > seconds + 8.0:
            return
