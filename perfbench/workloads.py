"""The benchmark's workloads.  Each is a closed loop with one client in one
process: the next operation starts when the previous one has returned.

Every workload has an untraced loop (:meth:`Workload.measure`) that runs for
a given number of seconds and a fixed traced unit (:meth:`Workload.unit`)
that the traced run executes once untraced and once under the tracer.
Output checks run outside the timed regions; a failed check is counted and
reported on stderr.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import mutants
import oracles
from calib import Clock, timed
from setup_probe import abelian_groups_up_to

from cohomotopy import abelian, cli, database, extensions, pipeline

ROOT = Path(__file__).resolve().parents[1]
DB_PATH = ROOT / "src" / "cohomotopy" / "data" / "paper.cohdb"

# The caches a cold run clears; held here because tracing rebinds the names.
LR_POSITIVE = extensions.lr_positive
ORACLE_TYPES = oracles.subgroup_quotient_types
ORACLE_REALIZABLE = oracles.realizable

GOLDEN_CHECKS = 65
DISCREPANCY_LABEL = "components n=7"
KILL_SAMPLE = 200  # kill_ratio is taken over this many first mutants of the seed
ENUM_LIMIT = 64  # |A|, |C| of the enumerator sweep
ORACLE_LIMIT = 32  # includes the order-32 groups; <= 24 builds only cheap keys
# oracle sweeps per second of --seconds; a sweep takes about 6 s at the
# calibration's reference speed, and fewer than 3 left its tail unsteady
ORACLE_SWEEPS_PER_S = 0.3
ENUM_CHECK_LIMIT = 24  # enumerator checked against the oracle up to this order
SWEEP = 200  # operations per sweep of a timed loop; ops_per_s is the median over sweeps
SNF_SWEEP = 2000  # SNF calls per sweep


class Run:
    """What one run of a workload measured."""

    def __init__(self, timer: bool = True, interval: float = 0.0):
        self.sweeps: list[list] = []  # per sweep, (start, end, seconds) per operation
        self.clock = Clock(timer, interval)
        self.attempted = 0
        self.failed = 0
        self.extra: dict = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)


class Workload:
    name = ""
    op = ""  # what one operation is, for the report
    cleared = ()  # the caches each sweep starts by clearing
    timer = True  # calibrate inside long operations too, on a timer
    interval = 0.0  # seconds between calibrations; 0 calibrates before each operation

    def prepare(self, seed: int) -> None:
        """Build the inputs; not timed."""

    def measure(self, seconds: float, run: Run) -> None:
        raise NotImplementedError

    def unit(self, run: Run, tracer=None) -> int:
        """The fixed traced unit; returns its number of operations."""
        raise NotImplementedError


def _timed_loop(seconds: float, run: Run, make, op, check, minimum: int = 1, per_sweep: int = 0) -> None:
    """Time ``op(make(i))`` for i = 0, 1, ... until ``seconds`` have passed
    and at least ``minimum`` operations ran.  ``make`` builds the input and
    ``check(i, input, value)`` checks the output, both outside the timed
    region.  With ``per_sweep``, the times are cut into sweeps of that many
    operations and a last, shorter sweep is dropped."""
    times = []
    run.sweeps.append(times)
    deadline = perf_counter() + seconds
    i = 0
    with run.clock.running():
        while i < minimum or perf_counter() < deadline:
            arg = make(i)
            run.clock.tick()
            value = timed(run.clock, times, op, arg)
            run.attempted += 1
            check(i, arg, value)
            i += 1
            if len(times) == per_sweep:
                times = []
                run.sweeps.append(times)
    if len(run.sweeps) > 1 and len(run.sweeps[-1]) < per_sweep:
        run.sweeps.pop()


def _set_op(tracer, i: int) -> None:
    if tracer is not None:
        tracer.op_id = i


def _untraced(tracer):
    """Output checks call traced functions too; keep them out of the spans."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def golden_problem(results) -> str | None:
    """Why a ``verify_all`` result on the shipped database is wrong, if it is."""
    if len(results) != GOLDEN_CHECKS:
        return f"{len(results)} checks, expected {GOLDEN_CHECKS}"
    for r in results:
        want = "documented-discrepancy" if r.label == DISCREPANCY_LABEL else "ok"
        if r.status != want:
            return f"{r.family} {r.label}: status {r.status}, expected {want}"
    return None


class Golden(Workload):
    name = "golden"
    op = "verify_all pass on the shipped database (warm)"

    def prepare(self, seed):
        self.db = database.load_db(DB_PATH)
        self._check(0, pipeline.verify_all(self.db), Run())  # warm-up, discarded

    def _check(self, i, results, run):
        problem = golden_problem(results)
        if problem:
            run.fail(f"golden pass {i}: {problem}")

    def measure(self, seconds, run):
        _timed_loop(
            seconds, run, lambda i: self.db, pipeline.verify_all,
            lambda i, db, res: self._check(i, res, run), per_sweep=SWEEP,
        )

    def unit(self, run, tracer=None):
        for i in range(30):
            _set_op(tracer, i)
            self._check(i, pipeline.verify_all(self.db), run)
            run.attempted += 1
        return 30


def cli_problem(returncode: int, stdout: str) -> str | None:
    lines = stdout.strip().splitlines()
    if returncode != 0:
        return f"exit code {returncode}"
    if not lines or lines[-1] != f"{GOLDEN_CHECKS}/{GOLDEN_CHECKS} checks passed":
        return f"last line {lines[-1] if lines else ''!r}"
    doc = [line for line in lines if line.startswith("[DOC]")]
    if len(doc) != 1 or DISCREPANCY_LABEL not in doc[0]:
        return f"documented-discrepancy lines {doc!r}"
    return None


class Cli(Workload):
    name = "cli"
    op = "cohomotopy verify as a fresh child process"
    timer = False

    def prepare(self, seed):
        self.argv = ["--db", str(DB_PATH), "verify"]
        self.cmd = [sys.executable, "-m", "cohomotopy.cli"] + self.argv
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._child(self.cmd)  # warm-up, discarded; writes the bytecode cache if that is on
        self._in_process()  # warm-up of the traced unit, discarded

    def _child(self, cmd):
        return subprocess.run(
            cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )

    def _check(self, i, returncode, stdout, run):
        problem = cli_problem(returncode, stdout)
        if problem:
            run.fail(f"cli run {i}: {problem}")

    def measure(self, seconds, run):
        _timed_loop(
            seconds, run, lambda i: self.cmd, self._child,
            lambda i, cmd, p: self._check(i, p.returncode, p.stdout, run),
        )

    def _in_process(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def unit(self, run, tracer=None):
        for i in range(10):
            _set_op(tracer, i)
            self._check(i, *self._in_process(), run)
            run.attempted += 1
        return 10


class Mutants(Workload):
    name = "mutants"
    op = "loads_db, validate_db, verify_all on one new single-number mutant"

    def prepare(self, seed):
        text = DB_PATH.read_text()
        self.lines = text.split("\n")
        self.specs = mutants.seeded_specs(text, seed)
        if mutants.check_mutant(text) != "survived":  # warm-up, discarded
            raise RuntimeError("the shipped database does not pass its own check")

    def _text(self, i):
        return mutants.apply_spec(self.lines, self.specs[i % len(self.specs)])

    def _record(self, i, outcome, outcomes, run):
        outcomes.append(outcome)
        if outcome == "crashed":
            run.fail(f"mutant {self.specs[i % len(self.specs)][4]} crashed the check")

    def _summarise(self, outcomes, run):
        counts = {o: outcomes.count(o) for o in mutants.OUTCOMES}
        sample = outcomes[:KILL_SAMPLE]
        run.extra["mutant_outcomes"] = counts
        run.extra["kill_sample_outcomes"] = {o: sample.count(o) for o in mutants.OUTCOMES}
        run.extra["kill_ratio"] = sum(o in mutants.DETECTED for o in sample) / len(sample)
        run.extra["mutants_total"] = len(self.specs)

    def measure(self, seconds, run):
        outcomes = []
        _timed_loop(
            seconds, run, self._text, mutants.check_mutant,
            lambda i, text, outcome: self._record(i, outcome, outcomes, run),
            minimum=KILL_SAMPLE, per_sweep=SWEEP,
        )
        self._summarise(outcomes, run)

    def unit(self, run, tracer=None):
        outcomes = []
        for i in range(KILL_SAMPLE):
            text = self._text(i)
            _set_op(tracer, i)
            self._record(i, mutants.check_mutant(text), outcomes, run)
            run.attempted += 1
        if getattr(self, "_unit_outcomes", outcomes) != outcomes:
            run.fail("traced mutant outcomes differ from untraced ones")
        self._unit_outcomes = outcomes
        self._summarise(outcomes, run)
        return KILL_SAMPLE


def _pairs(groups):
    """Every (A, C) in the order of the Tier-1 oracle test, which decides
    which pairs fill the caches.  The seed does not change it."""
    return [(a, c) for a in groups for c in groups]


def _enum_problem(a, c, got) -> str | None:
    if not got.candidates:
        return "no candidates"
    if a.direct_sum(c) not in got:
        return "split extension missing"
    order = a.order() * c.order()
    bad = [g for g in got.candidates if g.order() != order]
    if bad:
        return f"candidates of the wrong order: {bad}"
    return None


class Enum(Workload):
    name = "enum"
    op = "enumerate_middle_groups on one pair, cold cache per sweep"
    cleared = (LR_POSITIVE,)
    interval = 0.05

    def prepare(self, seed):
        self.groups = abelian_groups_up_to(ENUM_LIMIT)
        self._sweep(Run(interval=self.interval))  # warm-up: the first sweep in a process runs slower

    def _sweep(self, run, tracer=None):
        pairs = _pairs(self.groups)
        LR_POSITIVE.cache_clear()
        times = []
        results = []
        with run.clock.running():
            for i, (a, c) in enumerate(pairs):
                _set_op(tracer, i)
                run.clock.tick()
                results.append(timed(run.clock, times, extensions.enumerate_middle_groups, a, c))
        run.attempted += len(pairs)
        with _untraced(tracer):
            for (a, c), got in zip(pairs, results):
                problem = _enum_problem(a, c, got)
                if problem:
                    run.fail(f"enumerate A={a} C={c}: {problem}")
        return times

    def measure(self, seconds, run):
        deadline = perf_counter() + seconds
        while not run.sweeps or perf_counter() < deadline:
            run.sweeps.append(self._sweep(run))
        # the enumerator against the exhaustive oracle on the cheap keys
        small = [g for g in self.groups if g.order() <= ENUM_CHECK_LIMIT]
        for a in small:
            for c in small:
                got = set(extensions.enumerate_middle_groups(a, c).candidates)
                if got != oracles.oracle_middle_groups(a, c):
                    run.fail(f"enumerate A={a} C={c} disagrees with the oracle")

    def unit(self, run, tracer=None):
        self._sweep(run, tracer)
        return len(self.groups) ** 2


class Oracle(Workload):
    name = "oracle"
    op = "tests/oracles.oracle_middle_groups on one pair, cold caches per sweep"
    cleared = (ORACLE_TYPES, ORACLE_REALIZABLE)
    interval = 0.05

    def prepare(self, seed):
        self.groups = [g for g in abelian_groups_up_to(ENUM_LIMIT) if g.order() <= ORACLE_LIMIT]
        self.expected = [set(extensions.enumerate_middle_groups(a, c).candidates) for a, c in _pairs(self.groups)]

    def _sweep(self, run, tracer=None):
        pairs = _pairs(self.groups)
        ORACLE_TYPES.cache_clear()
        ORACLE_REALIZABLE.cache_clear()
        times = []
        results = []
        with run.clock.running():
            for i, (a, c) in enumerate(pairs):
                _set_op(tracer, i)
                run.clock.tick()
                results.append(timed(run.clock, times, oracles.oracle_middle_groups, a, c))
        run.attempted += len(pairs)
        for (a, c), got, want in zip(pairs, results, self.expected):
            if got != want:
                run.fail(f"oracle A={a} C={c} disagrees with the enumerator")
        return times

    def measure(self, seconds, run):
        # a fixed number of sweeps: the first sweep in a process is the
        # slowest, so a count that followed the clock would move the median
        for _ in range(max(1, round(seconds * ORACLE_SWEEPS_PER_S))):
            run.sweeps.append(self._sweep(run))

    def unit(self, run, tracer=None):
        self._sweep(run, tracer)
        return len(self.groups) ** 2


def snf_problem(m, s) -> str | None:
    if s.u @ m @ s.v != s.d:
        return "u @ m @ v != d"
    if not (s.u.is_unimodular() and s.v.is_unimodular()):
        return "transform not unimodular"
    if not s.d.is_diagonal():
        return "d not diagonal"
    diag = s.d.diagonal()
    if any(x < 0 for x in diag):
        return f"negative diagonal {diag}"
    for a, b in zip(diag, diag[1:]):
        if (b % a != 0) if a else (b != 0):
            return f"diagonal {diag} is not a divisor chain"
    return None


class Snf(Workload):
    name = "snf"
    op = "smith_normal_form on one new random matrix shaped like criterion 6"
    interval = 0.05

    def prepare(self, seed):
        self.rng = random.Random(seed)

    def _matrix(self):
        rng = self.rng
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        return abelian.IntMatrix.from_rows(
            [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        )

    def _check(self, m, s, run):
        problem = snf_problem(m, s)
        if problem:
            run.fail(f"smith_normal_form of {m.to_rows()}: {problem}")

    def measure(self, seconds, run):
        _timed_loop(
            seconds, run, lambda i: self._matrix(), abelian.smith_normal_form,
            lambda i, m, s: self._check(m, s, run), per_sweep=SNF_SWEEP,
        )

    def unit(self, run, tracer=None):
        state = self.rng.getstate()
        n = 20000
        for i in range(n):
            m = self._matrix()
            _set_op(tracer, i)
            self._check(m, abelian.smith_normal_form(m), run)
            run.attempted += 1
        self.rng.setstate(state)  # the traced pass sees the same matrices
        return n


WORKLOADS = {w.name: w for w in (Golden, Cli, Mutants, Enum, Oracle, Snf)}
